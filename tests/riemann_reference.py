"""The paper's definition of S_n, densely: left-point Riemann sums of
f(B^i) dB^j on a coarse grid, with the grid's nodes taken from the fine
values by fancy index.  fbmlab itself never forms these sums (at i = j it
uses their level-crossing form, at i != j the closed form of
E[S_n^2 | B^i]); the tests check both against this reference."""

import numpy as np


def coarse_values(values, fine, grid):
    """``values[..., nodes]`` (on ``fine``) at the nodes of ``grid``."""
    return values[..., np.arange(grid.steps + 1) * fine.refinement_of(grid)]


def integrand(f, x):
    """f(x) = sum c_k sgn(x - a_k), sgn(0) = -1, from the atoms of f."""
    x = np.asarray(x, dtype=float)
    return sum((np.where(x > a, c, -c) for a, c in f.atoms), np.zeros(x.shape))


def riemann_sums(bi, bj, fine, f, grid):
    """sum_k f(B^i_{t_k}) (B^j_{t_{k+1}} - B^j_{t_k}) over the steps of
    ``grid``, per row of ``bi`` and ``bj``
    (broadcast; shape (..., nodes) on ``fine``)."""
    xi = coarse_values(bi, fine, grid)
    xj = coarse_values(bj, fine, grid)
    return (integrand(f, xi[..., :-1]) * np.diff(xj, axis=-1)).sum(axis=-1)
