"""Composite Gauss-Legendre quadrature graded toward singular ends.

Every quadrature rule of fbmlab is built here: ``_panel_rule`` puts the
same Gauss-Legendre nodes on each panel of a partition, and
``_graded_rule`` on panels shrinking geometrically toward the singular
end(s) of [0, 1].  ``_iterated_integral`` applies a rule over inner
intervals that depend on an outer variable, with the integrand evaluated
in parts of a block of outer nodes, in arrays allocated once per call,
and summed one block at a time.
"""

from __future__ import annotations

import functools

import numpy as np

# elements per summed block of outer nodes: sets the order of the sum
_BLOCK_ELEMENTS = 1 << 15
# elements per evaluated part of a block, 128 kB an array.  The integrand
# writes a part's values into the block with out= ufuncs, through
# ``_WORK_ARRAYS`` arrays of the part's shape allocated once per call, so
# no temporary is made per part and the arrays stay in the core's cache;
# larger parts ran no faster.  (Fresh temporaries of 128 kB or more were
# mapped and faulted in afresh for each block by glibc's malloc: 6400 page
# faults, about 10 ms, per density_shift_integral(0.75, 256).)
_PART_ELEMENTS = 1 << 14
# arrays of a part's shape an integrand works in, the inner nodes included
_WORK_ARRAYS = 5


@functools.lru_cache(maxsize=8)
def _gauss_legendre(order: int):
    """Read-only ``order``-point Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_rule(edges, order: int):
    """Nodes and weights of an ``order``-point Gauss-Legendre rule on each
    panel [edges[k], edges[k+1]], panel after panel."""
    x, w = _gauss_legendre(order)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


@functools.lru_cache(maxsize=8)
def _graded_rule(panels: int, order: int, ratio: float, both_ends: bool = False):
    """Read-only nodes and weights on [0, 1] of ``_panel_rule`` with edges
    0 and geomspace(ratio, 1, panels), so the panels shrink geometrically
    toward 0.  With ``both_ends`` that rule is put on [0, 1/2] and mirrored
    onto [1/2, 1], grading toward both ends."""
    nodes, weights = _panel_rule(
        np.concatenate([[0.0], np.geomspace(ratio, 1.0, panels)]), order)
    if both_ends:
        nodes = np.concatenate([0.5 * nodes, 1.0 - 0.5 * nodes[::-1]])
        weights = np.concatenate([0.5 * weights, 0.5 * weights[::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _iterated_integral(f, rows, row_weights, start, end, rule):
    """sum_i row_weights[i] * integral of f over [start[i], end[i]], for
    outer nodes i given by the columns of ``rows``.

    ``rule`` is a (nodes, weights) pair on [0, 1] from ``_graded_rule``,
    mapped to start + (end - start) * node, so a one-ended rule is graded
    toward ``start`` (which may exceed ``end``).  ``f(*cols, work, out)``
    receives each column of ``rows`` as a (part, 1) array and ``work``, a
    stack of ``_WORK_ARRAYS`` (part, len(nodes)) arrays whose first holds
    the inner nodes, and writes the integrand there into ``out``, the
    part's rows of the block; it may overwrite all of ``work``.
    """
    y, wy = rule
    block = max(1, _BLOCK_ELEMENTS // len(y))
    part = max(1, _PART_ELEMENTS // len(y))
    buf = np.empty((min(block, len(row_weights)), len(y)))
    work = np.empty((_WORK_ARRAYS, min(part, len(buf)), len(y)))
    total = 0.0
    for i in range(0, len(row_weights), block):
        sl = slice(i, i + block)
        lo = start[sl, None]
        span = end[sl, None] - lo
        vals = buf[:len(lo)]
        for j in range(0, len(lo), part):
            ps = slice(j, j + part)
            w = work[:, :len(lo[ps])]
            np.add(lo[ps], np.multiply(span[ps], y, out=w[0]), out=w[0])
            f(*(col[sl][ps, None] for col in rows), w, vals[ps])
        total += float(row_weights[sl] * np.abs(span[:, 0]) @ (vals @ wy))
    return total
