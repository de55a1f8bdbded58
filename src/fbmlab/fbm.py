"""Fractional Brownian motion sample-path generation on uniform grids.

Two batch generators with the same distributional contract, each
returning an array of shape (replicates, components, nodes):

* :func:`sample_exact_batch` -- Cholesky factorisation of the grid
  covariance, O(N^3), capped at ``EXACT_NODE_CAP`` nodes.
* :func:`sample_fft_batch` -- circulant embedding of the stationary
  increment process (Davies-Harte), O(N log N).

The circulant-embedding synthesis itself is :func:`fft_paths`, a plain
function that hands the paths of consecutive replicates to a callback of
the caller's, one sub-block at a time; it is the one place where
increments are summed into paths.  The normals go through two buffers of
at most ``BLOCK_VALUES`` = 2^17 values (1 MB of float64 each, split
between the workers): the inverse transform writes over the normals, and
each sub-block's increments are summed into paths in place, while they
are still in cache.  :func:`sample_fft_batch` copies each
sub-block into its output array, so its memory is the output plus a few
MB; the rate experiments hand each sub-block to their kernels, so they
hold no path outside the synthesis buffers.

:func:`fft_ranges` is the one worker-range dispatch: it cuts a replicate
range into ``RANGES_PER_WORKER`` contiguous ranges per worker thread
(``threads``, default the CPU count), and each worker takes the next
range when it finishes one.  The calling thread is one of the workers,
beside one pool thread fewer: set-up and one-thread runs have already
filled its malloc arena, so it draws without raising the peak memory,
where a waiting caller would leave each worker to fill an arena of its
own; ``concurrent.futures`` is imported only when a pool starts.  The rate
experiments and :func:`sample_fft_batch` draw their paths
through it.  The workers split
the synthesis budget, ``BLOCK_VALUES // workers`` values each (at least
one row), so a call's buffers add up to those of one worker.

Both samplers are deterministic given ``(seed, replicate, component)``:
a path draws from the stream of :func:`substream` for its key, so results
do not depend on execution order.  A sampler call, or each worker range of
one, hashes all of its keys at once with SeedSequence's algorithm and
re-keys one PCG64 generator per path, which gives the same streams bit for
bit without a SeedSequence and a Generator per path; replicate ids stay
below 2^32.  Every row is computed on its own, so a path is bit-identical
whatever batch, block or worker it is drawn in; one path is row ``[0]`` of
a batch of one.  The partial step's conditional mean is a pairwise sum
per row, not a BLAS dot product, so paths do not depend on the BLAS thread
count either.

An off-grid ``t_end`` ends in a partial step, drawn exactly from its
conditional law given the grid increments.  Its weights solve a Toeplitz
system of order k = ``full_steps`` by FFT-preconditioned conjugate
gradients (:func:`_toeplitz_solve`), O(k log k) per iteration and about a
second at k = 10^5, with numpy alone.
"""

from __future__ import annotations

import operator
import os
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HurstIndex",
    "GridSpec",
    "EmbeddingError",
    "GridSizeError",
    "EXACT_NODE_CAP",
    "fbm_covariance",
    "fgn_autocovariance",
    "substream",
    "resolve_threads",
    "sample_exact_batch",
    "fft_ranges",
    "fft_paths",
    "sample_fft_batch",
]

EXACT_NODE_CAP = 4096

# values per row block of the FFT sampler and the Riemann kernel: a block's
# float64 buffers are 1 MB each, so two workers' synthesis buffers (0.5 MB
# each) stay within a 4 MB L2 cache; at i = j the rate experiments' kernels
# run on each sub-block in one crossing call, whose fixed cost no longer
# needs larger sub-blocks
BLOCK_VALUES = 2**17
# replicate ranges per worker thread of fft_ranges; each range sets up its
# own keys and buffers, so a few are enough to rebalance a slowed worker
RANGES_PER_WORKER = 3

# iteration cap of the partial step's Toeplitz solve: it took 7-44
# iterations at every H in [0.005, 0.999] and k up to 435159 tried, and 253
# at H = 1e-4
_TOEPLITZ_MAX_ITER = 500

# grid arithmetic tolerance for deciding whether n * t_end is an integer
_GRID_EPS = 1e-9


class EmbeddingError(RuntimeError):
    """Circulant embedding spectrum had too much negative mass."""


class GridSizeError(ValueError):
    """Requested grid exceeds the configured node cap."""


@dataclass(frozen=True)
class HurstIndex:
    """Hurst parameter, valid in (0, 1)."""

    value: float

    def __post_init__(self):
        if not 0.0 < self.value < 1.0:
            raise ValueError(f"Hurst index must lie in (0, 1), got {self.value}")

    def require_rough_regime(self):
        """Raise unless H > 1/2 (scope of the convergence results)."""
        if self.value <= 0.5:
            raise ValueError(
                f"operation requires Hurst index > 1/2, got {self.value}"
            )


def as_hurst(h) -> HurstIndex:
    return h if isinstance(h, HurstIndex) else HurstIndex(float(h))


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid k/n for k = 0..floor(n*t_end), plus t_end itself when
    n*t_end is not an integer (so the clamped terminal node is exact)."""

    t_end: float
    points_per_unit: int

    def __post_init__(self):
        if not 0.0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.points_per_unit < 1:
            raise ValueError("points_per_unit must be >= 1")
        if not np.isfinite(self.points_per_unit * self.t_end):
            raise ValueError(f"points_per_unit * t_end must be finite, got "
                             f"{self.points_per_unit} * {self.t_end}")
        if self.num_nodes < 2:
            raise ValueError(f"t_end = {self.t_end} is within {_GRID_EPS} of 0 on the "
                             f"grid with n = {self.points_per_unit}: one node")

    @property
    def full_steps(self) -> int:
        return int(np.floor(self.points_per_unit * self.t_end + _GRID_EPS))

    @property
    def has_partial_step(self) -> bool:
        k = self.full_steps
        return self.t_end - k / self.points_per_unit > _GRID_EPS

    def nodes(self) -> np.ndarray:
        n = self.points_per_unit
        ts = np.arange(self.full_steps + 1) / n
        if self.has_partial_step:
            ts = np.append(ts, self.t_end)
        return ts

    @property
    def num_nodes(self) -> int:
        return self.full_steps + 1 + int(self.has_partial_step)

    def refinement_of(self, coarse: "GridSpec") -> int:
        """Integer refinement factor relative to ``coarse``; raises if the
        coarse nodes are not an exact subset."""
        r = self.points_per_unit / coarse.points_per_unit
        if abs(r - round(r)) > _GRID_EPS or r < 1:
            raise ValueError(
                f"grid with n={self.points_per_unit} does not refine n="
                f"{coarse.points_per_unit}"
            )
        if abs(self.t_end - coarse.t_end) > _GRID_EPS:
            raise ValueError("grids must share t_end")
        return int(round(r))


def fbm_covariance(h, s: float, t: float) -> float:
    """E[B_s B_t] = (t^{2H} + s^{2H} - |t - s|^{2H}) / 2."""
    hv = as_hurst(h).value
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(t < 0):
        raise ValueError("times must be nonnegative")
    two_h = 2.0 * hv
    out = 0.5 * (t**two_h + s**two_h - np.abs(t - s) ** two_h)
    return float(out) if out.ndim == 0 else out


def fgn_autocovariance(h, lags, dt: float = 1.0) -> np.ndarray:
    """Stationary increment autocovariance at integer lags, step size dt."""
    hv = as_hurst(h).value
    k = np.abs(np.asarray(lags, dtype=float))
    two_h = 2.0 * hv
    gamma = 0.5 * ((k + 1) ** two_h - 2 * k**two_h + np.abs(k - 1) ** two_h)
    return gamma * dt**two_h


def row_blocks(rows: int, row_len: int, share: int = 1):
    """Consecutive slices covering ``range(rows)``, each of as many rows of
    ``row_len`` values as fit in ``BLOCK_VALUES // share`` (at least one
    row)."""
    step = max(1, BLOCK_VALUES // share // max(row_len, 1))
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent substream keyed by (master_seed, *key).

    SeedSequence spawn keys act as a splittable counter, so streams are
    reproducible regardless of the order in which workers request them.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


# SeedSequence's hash constants and PCG64's multiplier: fixed algorithms under
# numpy's stream-compatibility policy (NEP 19)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _mix(x, y):
    out = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return out ^ out >> 16


def _hash_chain(init: int, mult: int):
    """SeedSequence's running hash: each call xors a word with the current
    constant, steps the constant, multiplies and folds.  A word is a Python
    int or a uint32 array, whose products wrap."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _check_keys(master_seed: int, first_replicate: int, count: int) -> int:
    """The seed as an int; raises TypeError unless it is an integer, and
    ValueError unless every key (master_seed, first_replicate + r, c) with
    r < count is a one-word spawn key."""
    seed = operator.index(master_seed)
    if seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {seed}")
    if first_replicate < 0 or first_replicate + count > 2**32:
        # SeedSequence encodes a spawn key >= 2^32 in two words
        raise ValueError(f"first_replicate must be >= 0 with first_replicate "
                         f"+ count <= 2^32, got {first_replicate} + {count}")
    return seed


def _keyed_streams(master_seed: int, first_replicate: int, count: int,
                   components: int, first_component: int = 0):
    """``key(r, c)``: the generator of ``substream(master_seed,
    first_replicate + r, first_component + c)`` for r < count,
    c < components.

    All keys are hashed up front with SeedSequence's algorithm, the seed's
    words as Python ints and the replicate and component words as uint32
    arrays, into the 4 uint64 words that PCG64 draws from each key's
    SeedSequence.  ``key`` sets the state PCG64 seeds from them on one
    Generator, so the generator it returns is valid until the next call.
    """
    seed = _check_keys(master_seed, first_replicate, count)
    if first_component < 0 or first_component + components > 2**32:
        raise ValueError(f"first_component must be >= 0 with first_component "
                         f"+ components <= 2^32, got {first_component} + "
                         f"{components}")
    seed_words = [seed & _MASK32]
    while seed >> 32 * len(seed_words):
        seed_words.append(seed >> 32 * len(seed_words) & _MASK32)
    # a spawn key pads the seed to the pool size of 4 words
    seed_words += [0] * (4 - len(seed_words))
    hashmix = _hash_chain(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in seed_words[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    replicates = np.arange(first_replicate, first_replicate + count,
                           dtype=np.uint32)[:, None]
    component_ids = np.arange(first_component, first_component + components,
                              dtype=np.uint32)
    for word in seed_words[4:] + [replicates, component_ids]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): 8 uint32 words cycling through the pool,
    # paired little-endian into uint64 words
    draw = _hash_chain(_INIT_B, _MULT_B)
    state = np.empty((count, components, 8), dtype=np.uint32)
    for i in range(8):
        state[..., i] = draw(pool[i % 4])
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)

    def key(r: int, c: int) -> np.random.Generator:
        # PCG64 seeding: inc = 2 w[2:4] + 1, then two LCG steps from 0 that
        # add w[0:2] in between
        s_hi, s_lo, i_hi, i_lo = words[r, c].tolist()
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        pcg = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": pcg, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
        return rng

    return key


# ---------------------------------------------------------------------------
# exact (Cholesky) sampling
# ---------------------------------------------------------------------------

def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # one retry distinguishes float rounding from a genuine logic bug
        try:
            return np.linalg.cholesky(cov + 1e-12 * np.eye(len(cov)))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                "fBm grid covariance is not positive definite; "
                "this indicates a numerics bug"
            ) from exc


@lru_cache(maxsize=32)
def _grid_cholesky(h: HurstIndex, grid: GridSpec) -> np.ndarray:
    ts = grid.nodes()[1:]
    cov = fbm_covariance(h, ts[:, None], ts[None, :])
    return _cholesky_with_jitter(cov)


def sample_exact_batch(
    h,
    grid: GridSpec,
    master_seed: int,
    count: int,
    components: int = 1,
    first_replicate: int = 0,
) -> np.ndarray:
    """Batch of exact paths; returns array (count, components, num_nodes).

    Replicate r uses substreams (master_seed, first_replicate + r, c), so
    a batch equals the concatenation of per-replicate calls.
    """
    h = as_hurst(h)
    if grid.num_nodes > EXACT_NODE_CAP:
        raise GridSizeError(
            f"{grid.num_nodes} nodes exceeds exact-sampler cap {EXACT_NODE_CAP}"
        )
    chol = _grid_cholesky(h, grid)
    key = _keyed_streams(master_seed, first_replicate, count, components)
    z = np.empty((count, components, len(chol)))
    for r in range(count):
        for c in range(components):
            key(r, c).standard_normal(out=z[r, c])
    out = np.zeros((count, components, grid.num_nodes))
    out[:, :, 1:] = z @ chol.T
    return out


# ---------------------------------------------------------------------------
# circulant-embedding (Davies-Harte) sampling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _embedding_amplitude(h_value: float, n_increments: int,
                         points_per_unit: int) -> np.ndarray:
    """Half-spectrum amplitude sqrt(m * eigs[:m/2 + 1]) of the circulant
    embedding of the unit-lag fGn covariance, with the 1/sqrt(2) of the
    interior modes folded in, scaled to steps of 1/points_per_unit by
    points_per_unit^{-H}; m = 2 * (len - 1). Read-only (shared)."""
    m = 1
    while m < 2 * n_increments:
        m *= 2
    gamma = fgn_autocovariance(h_value, np.arange(m // 2 + 1))
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigs = np.fft.fft(row).real
    neg = eigs < 0
    if np.any(neg):
        clamped_mass = -eigs[neg].sum()
        if clamped_mass > 1e-6 * np.abs(eigs).sum():
            raise EmbeddingError(
                f"negative embedding mass {clamped_mass:.3e} for H={h_value}, "
                f"N={n_increments}"
            )
        eigs = np.clip(eigs, 0.0, None)
    amp = np.sqrt(eigs[: m // 2 + 1] * m)
    amp[1:-1] /= np.sqrt(2.0)
    amp *= points_per_unit ** (-h_value)
    amp.flags.writeable = False
    return amp


def _fgn_from_normals(amp: np.ndarray, zeta: np.ndarray,
                      spec: np.ndarray) -> np.ndarray:
    """Map one block of iid standard normals ``zeta`` (rows, m) to unit-lag
    fGn in place; the first n_incr columns of a row are its increments.
    ``spec`` (rows, m/2 + 1) is the complex half-spectrum buffer: modes 0
    and m/2 are real, mode j in (0, m/2) is amp[j] (zeta[j] + i zeta[m/2 +
    j]), and the real inverse transform implies the conjugate modes m - j.
    Returns ``zeta``."""
    half = amp.shape[0] - 1
    # products straight into the real and imaginary parts: no copy of the
    # normals and no complex multiply
    np.multiply(zeta[..., : half + 1], amp, out=spec.real)
    np.multiply(zeta[..., half + 1 :], amp[1:half], out=spec.imag[..., 1:half])
    spec.imag[..., 0] = 0.0
    spec.imag[..., half] = 0.0
    return np.fft.irfft(spec, n=2 * half, axis=-1, out=zeta)


def _toeplitz_solve(gamma: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve T x = c for the symmetric Toeplitz T with first column
    ``gamma`` by conjugate gradients preconditioned with T. Chan's optimal
    circulant (R. Chan & Ng, SIAM Review 38, 1996), O(k log k) per
    iteration.  Returns once the residual is at most 1e-14 |c|; raises
    RuntimeError when an iteration finds p'Tp <= 0 (T is not positive
    definite) or after ``_TOEPLITZ_MAX_ITER`` iterations.  Inner products
    are pairwise sums, not BLAS dots, so x does not depend on the BLAS
    thread count."""
    k = len(gamma)
    reverse = gamma[:0:-1]  # gamma_{k-1}, ..., gamma_1
    # T p is the head of a circular convolution with T's power-of-two
    # circulant embedding
    size = 1 << (2 * k - 1).bit_length()
    col = np.zeros(size)
    col[:k] = gamma
    col[size - k + 1 :] = reverse
    embedding = np.fft.rfft(col).real
    # Chan's circulant c_j = ((k - j) gamma_j + j gamma_{k-j}) / k
    j = np.arange(k)
    chan = ((k - j) * gamma + j * np.concatenate(([0.0], reverse))) / k
    chan_eigs = np.fft.rfft(chan).real
    x = np.zeros(k)
    p = np.zeros(k)
    r = c.astype(float)
    rz = 1.0
    tol = 1e-28 * (r * r).sum()
    for _ in range(_TOEPLITZ_MAX_ITER):
        if (r * r).sum() <= tol:
            return x
        z = np.fft.irfft(np.fft.rfft(r) / chan_eigs, k)
        rz_old, rz = rz, (r * z).sum()
        p = z + (rz / rz_old) * p
        q = np.fft.irfft(embedding * np.fft.rfft(p, size), size)[:k]
        pq = (p * q).sum()
        if not pq > 0:  # NaN fails the comparison too
            raise RuntimeError(f"Toeplitz matrix of order {k} is not positive "
                               f"definite (p'Tp = {pq:.3e})")
        x += (rz / pq) * p
        r -= (rz / pq) * q
    raise RuntimeError(f"Toeplitz conjugate gradients did not converge in "
                       f"{_TOEPLITZ_MAX_ITER} iterations (order {k})")


@lru_cache(maxsize=32)
def _partial_step_weights(h: HurstIndex, grid: GridSpec):
    """Conditional law of the terminal partial increment given the uniform
    increments: returns (w, cond_std) with mean = increments @ w.  The
    Toeplitz solve (:func:`_toeplitz_solve`) takes about a second at
    k = 10^5, so results are cached; ``w`` is read-only (shared).  Raises RuntimeError when the solve fails or the conditional
    variance comes out below -1e-12 tail^{2H}, tail the partial step's
    length."""
    n = grid.points_per_unit
    k = grid.full_steps
    tail = grid.t_end - k / n
    if k == 0:
        return np.zeros(0), tail**h.value
    gamma = fgn_autocovariance(h, np.arange(k), dt=1.0 / n)
    ks = np.arange(1, k + 1) / n
    # Cov(B_t - B_{k/n}, B_{i/n} - B_{(i-1)/n}), closed form via R(s,t)
    c = (
        fbm_covariance(h, grid.t_end, ks)
        - fbm_covariance(h, grid.t_end, ks - 1.0 / n)
        - fbm_covariance(h, k / n, ks)
        + fbm_covariance(h, k / n, ks - 1.0 / n)
    )
    w = _toeplitz_solve(gamma, c)
    w.flags.writeable = False
    var = tail ** (2 * h.value)
    cond_var = var - float((c * w).sum())
    # the exact value is a positive share of var (above 4% of it for every
    # H <= 0.99 and n <= 8192 tried), so only a negative of rounding size,
    # at or above -1e-12 var, is clamped to 0; below that the solve failed
    if cond_var < -1e-12 * var:
        raise RuntimeError(
            f"partial-step conditional variance {cond_var:.3e} is negative "
            f"beyond rounding (unconditional {var:.3e}) at H={h.value}, "
            f"n={n}, t_end={grid.t_end}")
    return w, np.sqrt(max(cond_var, 0.0))


def resolve_threads(threads=None) -> int:
    """Worker cap: ``threads``, or the CPU count when None; at least 1."""
    if threads is None:
        threads = os.cpu_count() or 1
    return max(1, int(threads))


def fft_ranges(h, grid: GridSpec, first: int, total: int, threads, work) -> None:
    """Run ``work(a, b, workers)`` on contiguous replicate ranges [a, b)
    that cover [first, total), on ``workers`` threads, at most
    ``resolve_threads(threads)`` of them; ``workers`` is passed on to
    :func:`fft_paths`.  One worker runs the whole range in the calling
    thread.

    More workers share ``RANGES_PER_WORKER`` ranges each, handed out in
    order: a worker takes the next range when it finishes one, so a worker
    whose CPU is taken by other load leaves its later ranges to the
    others, and the call does not wait for a fixed half at the slower
    CPU's pace.  The calling thread is one of the workers, beside
    ``workers - 1`` pool threads: the set-up and any one-thread run have
    already filled its malloc arena, so it draws without growing the
    peak, where an idle caller would leave every worker to fill an arena
    of its own.  Once a range raises (a ``KeyboardInterrupt`` in the
    caller too), no further range is handed out, and the exception
    propagates when the ranges already taken have finished.

    The workers draw Davies-Harte paths on ``grid`` and share its cached
    embedding spectrum and partial-step law, so those are computed here
    first: two workers that missed the cache together would each run the
    partial step's Toeplitz solve.
    """
    workers = min(resolve_threads(threads), total - first)
    if workers <= 1:
        if total > first:
            work(first, total, 1)
        return
    parts = workers * RANGES_PER_WORKER
    cuts = [first + (total - first) * p // parts for p in range(parts + 1)]
    todo = deque((a, b) for a, b in zip(cuts, cuts[1:]) if b > a)
    h = as_hurst(h)
    if grid.full_steps > 0:
        _embedding_amplitude(h.value, grid.full_steps, grid.points_per_unit)
        if grid.has_partial_step:
            _partial_step_weights(h, grid)

    # imported here, as it loads logging (0.7 MB) and one-worker calls need
    # no pool
    from concurrent.futures import ThreadPoolExecutor

    def drain():
        # popleft and clear are atomic, so each range is handed out once
        try:
            while True:
                try:
                    a, b = todo.popleft()
                except IndexError:
                    return
                work(a, b, workers)
        except BaseException:
            todo.clear()  # hand out no further range
            raise

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
    for helper in helpers:
        helper.result()


def fft_paths(h, grid: GridSpec, master_seed: int, first_replicate: int,
              count: int, take, workers: int = 1, components: int = 1,
              first_component: int = 0) -> None:
    """Circulant-embedding paths of ``count`` replicates from
    ``first_replicate`` on, handed to ``take(start, paths)`` one sub-block at
    a time: ``paths`` (shape (rows, components, num_nodes), column 0 the
    origin, 0.0) holds replicates ``first_replicate + start`` onwards and is
    a view of a reused buffer, valid until ``take`` returns.  Components
    likewise count from ``first_component``: ``paths[r, c]`` is the path
    keyed (master_seed, first_replicate + start + r, first_component + c),
    so one component of a multi-component batch is drawn alone.

    The keys are hashed once per call, and the rows are synthesised in
    sub-blocks of at most ``BLOCK_VALUES // workers`` embedding values (at
    least one row) through two buffers allocated once per call: the
    normals, one spare column before each row, and their half spectrum.
    The transform writes the increments over the normals, and they are
    summed into paths in place, from the origin in the spare column, so
    the paths never leave the normals buffer.  So the ``workers`` calls
    that :func:`fft_ranges` runs at once hold what one alone would.
    """
    h = as_hurst(h)
    key = _keyed_streams(master_seed, first_replicate, count, components,
                         first_component)
    k = grid.full_steps
    if k == 0:
        scale = grid.t_end ** h.value
        paths = np.zeros((count, components, 2))
        for r in range(count):
            for c in range(components):
                paths[r, c, 1] = scale * key(r, c).standard_normal()
        if count:
            take(0, paths)
        return
    partial = grid.has_partial_step
    if partial:
        w, cond_std = _partial_step_weights(h, grid)
        weighted = np.empty(k)
    amp = _embedding_amplitude(h.value, k, grid.points_per_unit)
    m = 2 * (amp.shape[0] - 1)
    subs = row_blocks(count, components * m, workers)
    sub_rows = subs[0].stop if subs else 0
    # m >= 2k, so the k + 1 nodes and a partial step's node fit in m + 1
    zeta = np.empty((sub_rows, components, m + 1))
    spec = np.empty((sub_rows, m // 2 + 1), dtype=complex)
    extra = np.empty(sub_rows)
    for sub in subs:
        nb = sub.stop - sub.start
        for c in range(components):
            normals = zeta[:nb, c, 1:]
            for r in range(nb):
                rng = key(sub.start + r, c)
                rng.standard_normal(out=normals[r])
                if partial:
                    extra[r] = rng.standard_normal()
            fgn = _fgn_from_normals(amp, normals, spec[:nb])[:, :k]
            if partial:
                # one pairwise sum per row, through one reused row buffer,
                # so no result depends on the block, and no BLAS dot, whose
                # threads would split a long row
                for r in range(nb):
                    extra[r] = (np.multiply(fgn[r], w, out=weighted).sum()
                                + cond_std * extra[r])
            zeta[:nb, c, 0] = 0.0  # the origin, which the cumsum keeps
            path = zeta[:nb, c, : k + 1]
            np.cumsum(path, axis=-1, out=path)
            if partial:
                zeta[:nb, c, k + 1] = path[:, k] + extra[:nb]
        take(sub.start, zeta[:nb, :, : grid.num_nodes])


def sample_fft_batch(
    h,
    grid: GridSpec,
    master_seed: int,
    count: int,
    components: int = 1,
    first_replicate: int = 0,
    threads=None,
) -> np.ndarray:
    """Batch of circulant-embedding paths, shape (count, components, N).

    Same distribution and substream contract as :func:`sample_exact_batch`.
    The terminal partial increment (when present) is drawn exactly from its
    conditional law given the uniform increments.  The workers of
    :func:`fft_ranges` (at most ``threads``, default the CPU count; the
    calling thread, whose malloc arena is already filled, is one of them)
    copy the sub-blocks of :func:`fft_paths` into the returned array, and
    the result does not depend on ``threads``.
    """
    _check_keys(master_seed, first_replicate, count)
    out = np.empty((count, components, grid.num_nodes))

    def fill(a, b, workers):
        def take(start, paths):
            out[a + start : a + start + len(paths)] = paths

        fft_paths(h, grid, master_seed, first_replicate + a, b - a, take,
                  workers, components)

    fft_ranges(h, grid, 0, count, threads, fill)
    return out

