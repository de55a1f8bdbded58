"""Riemann sums of pathwise integrals with bounded-variation integrands.

An integrand of bounded variation is represented by its derivative measure:
f(x) = beta + sum_k c_k * sgn(x - a_k), with sgn(0) = -1 so f is
left-continuous (the left derivative of a convex function when all c_k are
nonnegative).  Integrands are finite step functions: a finite list of atoms.

The normalised discretisation error S_n = n^{2H-1} (integral - Riemann sum)
is the central object; for indicator integrands and a single component it
has a closed form as a sum of |B - a| over grid steps that cross the level.
The kernels take arrays of shape (..., nodes), so one call covers a whole
batch of replicates; a single path is a (nodes,) array and gives a 0-d
result.  The Riemann kernel works through the rows in blocks of at most
``fbm.BLOCK_VALUES`` coarse values, so its temporaries are a few MB
whatever the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fbm import GridSpec, row_blocks

__all__ = [
    "SignedMeasure",
    "indicator_measure",
    "eval_integrand",
    "riemann_sums",
    "crossing_sums",
]


@dataclass(frozen=True)
class SignedMeasure:
    """Derivative measure of a BV integrand: atoms (a_k, c_k) plus base
    constant beta in f(x) = beta + sum c_k sgn(x - a_k)."""

    atoms: tuple
    base_constant: float = 0.0

    def __post_init__(self):
        atoms = tuple((float(a), float(c)) for a, c in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not (np.isfinite(atoms).all() and np.isfinite(self.base_constant)
                and np.isfinite(self.total_variation)):
            raise ValueError("atom positions, masses, base constant and "
                             "total variation must be finite")

    @property
    def total_variation(self) -> float:
        return float(sum(abs(c) for _, c in self.atoms))


def indicator_measure(a: float = 0.0) -> SignedMeasure:
    """Measure representing f(x) = 1_{x > a}."""
    return SignedMeasure(((a, 0.5),), base_constant=0.5)


def eval_integrand(f: SignedMeasure, x):
    """Evaluate f(x) = beta + sum c_k sgn(x - a_k); vectorised in x."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, f.base_constant)
    for a, c in f.atoms:
        out += np.where(x > a, c, -c)  # c sgn(x - a), sgn(0) = -1
    return float(out) if out.ndim == 0 else out


def _coarse_view(values: np.ndarray, fine: GridSpec, grid: GridSpec) -> np.ndarray:
    """``values[..., nodes]`` (on ``fine``) restricted to the nodes of
    ``grid``, which ``fine`` must refine: a strided view of the full
    steps, with the terminal node appended only when ``grid`` has a
    partial step (a plain ``::r`` would already pick it whenever its fine
    index is a multiple of r)."""
    r = fine.refinement_of(grid)
    view = values[..., : r * grid.full_steps + 1 : r]
    if grid.has_partial_step:
        view = np.concatenate([view, values[..., -1:]], axis=-1)
    return view


def riemann_sums(bi: np.ndarray, bj: np.ndarray, fine: GridSpec,
                 f: SignedMeasure, grid: GridSpec) -> np.ndarray:
    """Left-point sums of f(B^i) dB^j on ``grid`` along the last axis of
    ``bi`` and ``bj`` (shape (..., nodes) on ``fine``); shape (...).

    The final increment is clamped at t_end via the grid's terminal node.
    """
    rows_shape = bi.shape[:-1]
    bi = bi.reshape(-1, bi.shape[-1])
    bj = bj.reshape(-1, bj.shape[-1])
    out = np.empty(bi.shape[0])
    for blk in row_blocks(bi.shape[0], grid.num_nodes):
        xi = _coarse_view(bi[blk], fine, grid)
        xj = _coarse_view(bj[blk], fine, grid)
        terms = eval_integrand(f, xi[:, :-1])
        terms *= np.diff(xj, axis=-1)
        # one pairwise sum per row, so no result depends on the block, and no
        # BLAS dot, whose threads would split a long row
        out[blk] = terms.sum(axis=-1)
    return out.reshape(rows_shape)[()]


def crossing_sums(values: np.ndarray, fine: GridSpec, a: float, grid: GridSpec,
                  weights: np.ndarray | None = None) -> np.ndarray:
    """sum_k w_k |B_{(k+1)/n ^ t} - a| over the steps of ``grid`` whose
    endpoints lie on opposite sides of level a (sgn(0) = -1), per row of
    ``values`` (shape (..., nodes) on ``fine``); w = 1 without ``weights``.
    Shape (...).

    n^{2H-1} times the unweighted sum is the closed form of S_n for
    f = 1_{x > a} and equal components.
    """
    b = _coarse_view(values, fine, grid)
    rows_shape = b.shape[:-1]
    b = b.reshape(-1, b.shape[-1])
    above = b > a
    # a flat index search: np.nonzero of a 2-D mask is about 9x slower, and
    # divmod gives the same (row, step) pairs in the same order
    crossed = above[:, 1:] != above[:, :-1]
    rows, steps = np.divmod(np.flatnonzero(crossed), crossed.shape[1])
    terms = np.abs(b[rows, steps + 1] - a)
    if weights is not None:
        terms *= weights[steps]
    return np.bincount(rows, weights=terms, minlength=b.shape[0]).reshape(rows_shape)
