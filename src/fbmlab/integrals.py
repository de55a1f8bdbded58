"""Pathwise integrals with bounded-variation integrands and their
discretisation error.

An integrand of bounded variation is represented by its derivative measure:
f(x) = sum_k c_k * sgn(x - a_k) up to a constant, with sgn(0) = -1 so f is
left-continuous (the left derivative of a convex function when all c_k are
nonnegative).  Integrands are finite step functions: a finite list of atoms.

The normalised discretisation error S_n = n^{2H-1} (integral - Riemann sum)
is the central object; for indicator integrands and a single component it
has a closed form as a sum of |B - a| over grid steps that cross the level.
The kernel takes arrays of shape (..., nodes), so one call covers a whole
batch of replicates; a single path is a (nodes,) array and gives a 0-d
result.  It also takes a sequence of grids and returns one row of sums per
grid: one call compares the fine values with the level once and finds the
crossings of every grid in one pass, so its fixed cost of a few dozen
microseconds is paid once for all grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fbm import GridSpec

__all__ = [
    "SignedMeasure",
    "indicator_measure",
    "crossing_sums",
]


@dataclass(frozen=True)
class SignedMeasure:
    """Derivative measure of a BV integrand: atoms (a_k, c_k) in
    f(x) = sum c_k sgn(x - a_k).  This gives f up to a constant, on which
    S_n does not depend: every Riemann sum integrates a constant exactly."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(a), float(c)) for a, c in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not (np.isfinite(atoms).all() and np.isfinite(self.total_variation)):
            raise ValueError("atom positions, masses and total variation must "
                             "be finite")

    @property
    def total_variation(self) -> float:
        return float(sum(abs(c) for _, c in self.atoms))


def indicator_measure(a: float = 0.0) -> SignedMeasure:
    """Measure representing f(x) = 1_{x > a}, up to a constant."""
    return SignedMeasure(((a, 0.5),))


def _coarse_nodes(fine: GridSpec, grid: GridSpec):
    """The nodes of ``grid`` among those of ``fine``, which must refine it:
    a slice that picks the nodes of the full steps, and whether the
    terminal node follows.  It follows only when ``grid`` has a partial
    step: a plain ``::r`` already picks it whenever its fine index is a
    multiple of r."""
    r = fine.refinement_of(grid)
    return slice(0, r * grid.full_steps + 1, r), grid.has_partial_step


@lru_cache(maxsize=32)
def _crossing_layout(fine: GridSpec, grids: tuple):
    """The nodes of every grid of ``grids`` (``_coarse_nodes``) as the
    columns of one row, grid after grid.  Returns the spans, per grid its
    slice of the fine nodes, the columns [start, stop) of those nodes and
    whether the terminal node follows in column stop; the fine index of
    every column; the grid of each pair of consecutive columns, by its left
    column; and the pairs that join two grids, which are no step.  Arrays
    are read-only (shared)."""
    every = np.arange(fine.num_nodes)
    spans, parts, starts = [], [], [0]
    for grid in grids:
        nodes, partial = _coarse_nodes(fine, grid)
        part = every[nodes]
        spans.append((nodes, starts[-1], starts[-1] + len(part), partial))
        parts.append(np.append(part, every[-1]) if partial else part)
        starts.append(starts[-1] + len(parts[-1]))
    index = np.concatenate(parts)
    owner = np.repeat(np.arange(len(grids)), np.diff(starts))[:-1]
    joins = np.array(starts[1:-1], dtype=np.intp) - 1
    for arr in (index, owner, joins):
        arr.flags.writeable = False
    return tuple(spans), index, owner, joins


def crossing_sums(values: np.ndarray, fine: GridSpec, a: float, grids,
                  weights: np.ndarray | None = None) -> np.ndarray:
    """sum_k w_k |B_{(k+1)/n ^ t} - a| over the steps of a grid whose
    endpoints lie on opposite sides of level a (sgn(0) = -1), per row of
    ``values`` (shape (..., nodes) on ``fine``, which must refine every
    grid); w = 1 without ``weights``.  ``grids`` is one ``GridSpec``, for a
    result of shape (...), or a sequence of them, for one row of sums per
    grid, shape (len(grids), ...); ``weights``, one per step, need one grid.

    n^{2H-1} times the unweighted sum is the closed form of S_n for
    f = 1_{x > a} and equal components.  One call compares the fine values
    with a once, lays out the sides of every grid's nodes in one row per
    path (``_crossing_layout``, cached), finds the crossings of all grids in
    one flat index search, and sums them in one ``bincount`` keyed by
    (grid, row), each row's in step order, so a row of sums is
    bit-identical to a call for its grid alone.
    """
    single = isinstance(grids, GridSpec)
    grids = (grids,) if single else tuple(grids)
    if weights is not None and not single:
        raise ValueError("weights need a single grid")
    spans, index, owner, joins = _crossing_layout(fine, grids)
    rows_shape = values.shape[:-1]
    values = values.reshape(-1, values.shape[-1])
    count = values.shape[0]
    above = values > a
    # strided copies: np.take through the index runs about 3x slower
    sides = np.empty((count, len(index)), dtype=bool)
    for nodes, start, stop, partial in spans:
        sides[:, start:stop] = above[:, nodes]
        if partial:
            sides[:, stop] = above[:, -1]
    del above  # so the fine mask and the crossings are not held together
    crossed = sides[:, 1:] != sides[:, :-1]
    crossed[:, joins] = False
    # a flat index search: np.nonzero of a 2-D mask is about 9x slower, and
    # divmod gives the same (row, pair) pairs in the same order
    rows, pairs = np.divmod(np.flatnonzero(crossed), crossed.shape[1])
    terms = np.abs(values[rows, index[pairs + 1]] - a)
    if weights is not None:
        terms *= weights[pairs]  # one grid: each pair is its step
    sums = np.bincount(owner[pairs] * count + rows, weights=terms,
                       minlength=len(grids) * count)
    return sums.reshape(rows_shape if single else (len(grids),) + rows_shape)
