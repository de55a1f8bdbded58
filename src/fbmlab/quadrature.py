"""Composite Gauss-Legendre quadrature graded toward singular ends.

The quadrature oracles (``localtime.moment_oracle`` with p = 2 and
``bounds.density_shift_integral``) integrate over 2-D regions whose inner
interval depends on the outer variable, with integrands that are bounded
but change quickly near an end of that interval.  Both use the rule here:
geometric panels shrinking toward the singular end(s), each carrying the
same Gauss-Legendre nodes, with the integrand evaluated as one array per
block of outer nodes.
"""

from __future__ import annotations

import functools

import numpy as np

# elements per evaluated block: keeps each temporary near 256 kB
_BLOCK_ELEMENTS = 1 << 15


@functools.lru_cache(maxsize=8)
def _graded_rule(panels: int, order: int, ratio: float, both_ends: bool = False):
    """Read-only nodes and weights on [0, 1] of an ``order``-point
    Gauss-Legendre rule on each of ``panels`` panels with edges 0 and
    geomspace(ratio, 1, panels), so the panels shrink geometrically toward
    0.  With ``both_ends`` that rule is put on [0, 1/2] and mirrored onto
    [1/2, 1], grading toward both ends."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.concatenate([[0.0], np.geomspace(ratio, 1.0, panels)])
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (mid + half * x).ravel()
    weights = (half * w).ravel()
    if both_ends:
        nodes = np.concatenate([0.5 * nodes, 1.0 - 0.5 * nodes[::-1]])
        weights = np.concatenate([0.5 * weights, 0.5 * weights[::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _iterated_integral(f, rows, row_weights, start, end, rule) -> float:
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
    total = 0.0
    for i in range(0, len(row_weights), block):
        sl = slice(i, i + block)
        lo = start[sl, None]
        span = end[sl, None] - lo
        vals = f(*(col[sl, None] for col in rows), lo + span * y)
        total += float((row_weights[sl] * np.abs(span[:, 0])) @ (vals @ wy))
    return total
