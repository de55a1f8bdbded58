"""Composite Gauss-Legendre quadrature graded toward singular ends.

Every quadrature rule of fbmlab is built here: ``_panel_rule`` puts the
same Gauss-Legendre nodes on each panel of a partition, and
``_graded_rule`` on panels shrinking geometrically toward the singular
end(s) of [0, 1].  ``_iterated_integral`` applies a rule over inner
intervals that depend on an outer variable, with the integrand evaluated
in parts of a block of outer nodes and summed one block at a time.
"""

from __future__ import annotations

import functools

import numpy as np

# elements per summed block of outer nodes: sets the order of the sum
_BLOCK_ELEMENTS = 1 << 15
# elements per evaluated part of a block, 56 kB a temporary.  glibc's
# malloc maps a chunk of 128 kB or more on its own and unmaps it when
# freed, and a free of 64 kB or more trims the heap top, unless earlier,
# larger frees in the process raised those thresholds; larger temporaries
# are then faulted in afresh for each block, 6400 page faults (about
# 10 ms) per density_shift_integral(0.75, 256)
_PART_ELEMENTS = 7 << 10


def _panel_rule(edges, order: int):
    """Nodes and weights of an ``order``-point Gauss-Legendre rule on each
    panel [edges[k], edges[k+1]], panel after panel."""
    x, w = np.polynomial.legendre.leggauss(order)
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
    toward ``start`` (which may exceed ``end``).  ``f(*cols, y)`` receives
    each column of ``rows`` as a (block, 1) array and the inner nodes as a
    (block, len(nodes)) array, and returns the integrand there.
    """
    y, wy = rule
    block = max(1, _BLOCK_ELEMENTS // len(y))
    part = max(1, _PART_ELEMENTS // len(y))
    buf = np.empty((min(block, len(row_weights)), len(y)))
    total = 0.0
    for i in range(0, len(row_weights), block):
        sl = slice(i, i + block)
        lo = start[sl, None]
        span = end[sl, None] - lo
        vals = buf[:len(lo)]
        for j in range(0, len(lo), part):
            ps = slice(j, j + part)
            vals[ps] = f(*(col[sl][ps, None] for col in rows),
                         lo[ps] + span[ps] * y)
        total += float(row_weights[sl] * np.abs(span[:, 0]) @ (vals @ wy))
    return total
