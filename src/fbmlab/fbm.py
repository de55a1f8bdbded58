"""Fractional Brownian motion sample-path generation on uniform grids.

Two batch generators with the same distributional contract, each
returning an array of shape (replicates, components, nodes):

* :func:`sample_exact_batch` -- Cholesky factorisation of the grid
  covariance, O(N^3), capped at ``EXACT_NODE_CAP`` nodes.
* :func:`sample_fft_batch` -- circulant embedding of the stationary
  increment process (Davies-Harte), O(N log N).

The circulant-embedding synthesis itself is :func:`fft_blocks`, which
yields the paths in blocks of consecutive replicates of about
``GROUP_VALUES`` values through one reused block buffer, so a consumer
that needs each block only once (the rate experiments) holds a few MB
whatever the replicate count.  Within a block, normals, half spectrum and
transform output go through three buffers of at most ``BLOCK_VALUES``
values.  :func:`sample_fft_batch` runs the same generator with its output
array as the block buffer, so its memory is the output plus a few MB.

:func:`fft_ranges` is the one worker-range dispatch: it cuts a replicate
range into ``RANGES_PER_WORKER`` contiguous ranges per worker thread
(``threads``, default the CPU count), and each worker takes the next
range when it finishes one.  The rate experiments and
:func:`sample_fft_batch` draw their paths through it.  Normal
generation releases the interpreter lock; the transforms and
``np.cumsum`` hold it, so :func:`sample_fft_batch` sums the increments
into paths after its workers finish.  The workers split
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
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
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
    "fft_blocks",
    "sample_fft_batch",
    "path_to_csv",
]

EXACT_NODE_CAP = 4096

# values per row block of the FFT sampler and the Riemann kernel: a block's
# float64 buffers (2 MB each) stay within a 4 MB L2 cache
BLOCK_VALUES = 2**18
# path values per block that fft_blocks yields: every kernel call on a block
# hands the interpreter lock between worker threads, so a block spans several
# synthesis blocks
GROUP_VALUES = 4 * BLOCK_VALUES
# replicate ranges per worker thread of fft_ranges; each range sets up its
# own keys and buffers, so a few are enough to rebalance a slowed worker
RANGES_PER_WORKER = 3

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
    """The seed as an int; raises unless every key (master_seed,
    first_replicate + r, c) with r < count is a one-word spawn key."""
    seed = int(master_seed)
    if seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {seed}")
    if first_replicate < 0 or first_replicate + count > 2**32:
        # SeedSequence encodes a spawn key >= 2^32 in two words
        raise ValueError(f"first_replicate must be >= 0 with first_replicate "
                         f"+ count <= 2^32, got {first_replicate} + {count}")
    return seed


def _keyed_streams(master_seed: int, first_replicate: int, count: int,
                   components: int):
    """``key(r, c)``: the generator of ``substream(master_seed,
    first_replicate + r, c)`` for r < count, c < components.

    All keys are hashed up front with SeedSequence's algorithm, the seed's
    words as Python ints and the replicate and component words as uint32
    arrays, into the 4 uint64 words that PCG64 draws from each key's
    SeedSequence.  ``key`` sets the state PCG64 seeds from them on one
    Generator, so the generator it returns is valid until the next call.
    """
    seed = _check_keys(master_seed, first_replicate, count)
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
    for word in seed_words[4:] + [replicates,
                                  np.arange(components, dtype=np.uint32)]:
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
def _grid_cholesky(h_value: float, nodes_key: tuple) -> np.ndarray:
    ts = np.asarray(nodes_key)
    cov = fbm_covariance(h_value, ts[:, None], ts[None, :])
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
    ts = grid.nodes()[1:]
    chol = _grid_cholesky(h.value, tuple(ts.tolist()))
    key = _keyed_streams(master_seed, first_replicate, count, components)
    z = np.empty((count, components, len(ts)))
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
def _embedding_amplitude(h_value: float, n_increments: int) -> np.ndarray:
    """Half-spectrum amplitude sqrt(m * eigs[:m/2 + 1]) of the circulant
    embedding of the unit-lag fGn covariance, with the 1/sqrt(2) of the
    interior modes folded in; m = 2 * (len - 1). Read-only (shared)."""
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
    amp.flags.writeable = False
    return amp


def _fgn_from_normals(amp: np.ndarray, zeta: np.ndarray, spec: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """Map one block of iid standard normals ``zeta`` (rows, m) to unit-lag
    fGn in ``out`` (rows, m); the first n_incr columns of a row are its
    increments.  ``spec`` (rows, m/2 + 1) is the complex half-spectrum
    buffer: modes 0 and m/2 are real, mode j in (0, m/2) is
    amp[j] (zeta[j] + i zeta[m/2 + j]), and the real inverse transform
    implies the conjugate modes m - j.  Returns ``out``."""
    half = amp.shape[0] - 1
    # products straight into the real and imaginary parts: no copy of the
    # normals and no complex multiply
    np.multiply(zeta[..., : half + 1], amp, out=spec.real)
    np.multiply(zeta[..., half + 1 :], amp[1:half], out=spec.imag[..., 1:half])
    spec.imag[..., 0] = 0.0
    spec.imag[..., half] = 0.0
    return np.fft.irfft(spec, n=2 * half, axis=-1, out=out)


@lru_cache(maxsize=32)
def _partial_step_weights(h: HurstIndex, grid: GridSpec):
    """Conditional law of the terminal partial increment given the uniform
    increments: returns (w, cond_std) with mean = increments @ w.  The
    Toeplitz solve is O(k^2), so results are cached; ``w`` is read-only
    (shared).  Only grids whose t_end is off the grid reach this, so scipy
    is imported here rather than with the module."""
    from scipy.linalg import solve_toeplitz

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
    w = solve_toeplitz(gamma, c)
    w.flags.writeable = False
    cond_var = tail ** (2 * h.value) - float((c * w).sum())
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
    :func:`fft_blocks`.  One worker runs the whole range in the calling
    thread.

    More workers share ``RANGES_PER_WORKER`` ranges each: a worker takes
    the next range when it finishes one, so a worker whose CPU is taken
    by other load leaves its later ranges to the others, and the call
    does not wait for a fixed half at the slower CPU's pace.

    The workers draw Davies-Harte paths on ``grid`` and share its cached
    embedding spectrum and partial-step law, so those are computed here
    first: two workers that missed the cache together would each run the
    O(k^2) Toeplitz solve.
    """
    workers = min(resolve_threads(threads), total - first)
    if workers <= 1:
        if total > first:
            work(first, total, 1)
        return
    parts = workers * RANGES_PER_WORKER
    cuts = [first + (total - first) * p // parts for p in range(parts + 1)]
    ranges = [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
    h = as_hurst(h)
    if grid.full_steps > 0:
        _embedding_amplitude(h.value, grid.full_steps)
        if grid.has_partial_step:
            _partial_step_weights(h, grid)
    # the pool's queue hands the ranges out in order as workers free up
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda r: work(*r, workers), ranges))


def fft_blocks(
    h,
    grid: GridSpec,
    master_seed: int,
    count: int,
    components: int = 1,
    first_replicate: int = 0,
    out: np.ndarray | None = None,
    workers: int = 1,
    increments: bool = False,
):
    """Circulant-embedding paths of replicates ``first_replicate`` to
    ``first_replicate + count - 1``, in blocks of consecutive replicates.

    Yields ``(rows, block)`` with ``block`` of shape
    (rows, components, num_nodes).  Without ``out``, every block is a view
    of one buffer of about ``GROUP_VALUES`` values (at least one row) that
    the next block overwrites, so a consumer must use a block before it
    asks for the next.  With ``out`` (shape (count, components, num_nodes),
    zero in column 0) the blocks are consecutive rows of ``out``, and
    draining the generator fills it.  Each block is synthesised in
    sub-blocks of at most ``BLOCK_VALUES // workers`` embedding values (at
    least one row) through three buffers allocated once per call, so the
    ``workers`` generators that :func:`fft_ranges` runs at once hold what
    one alone would.  With ``increments`` a block holds each path's
    increments B(t_j) - B(t_{j-1}) in column j, and a cumulative sum along
    the last axis turns it into the paths, bit for bit.
    """
    h = as_hurst(h)
    n = grid.points_per_unit
    k = grid.full_steps
    partial = grid.has_partial_step
    step = max(1, GROUP_VALUES // (components * grid.num_nodes))
    reuse = out is None
    if reuse:
        out = np.zeros((min(step, count), components, grid.num_nodes))
    if k > 0:
        amp = _embedding_amplitude(h.value, k) * n ** (-h.value)
        if partial:
            w, cond_std = _partial_step_weights(h, grid)
        m = 2 * (amp.shape[0] - 1)
        subs = row_blocks(min(step, count), m, workers)
        sub_rows = subs[0].stop if subs else 0
        zeta = np.empty((sub_rows, m))
        spec = np.empty((sub_rows, m // 2 + 1), dtype=complex)
        incr = np.empty((sub_rows, m))
        extra = np.empty(sub_rows)
    key = _keyed_streams(master_seed, first_replicate, count, components)
    for start in range(0, count, step):
        rows = min(step, count - start)
        block = out[:rows] if reuse else out[start : start + rows]
        if k == 0:
            for r in range(rows):
                for c in range(components):
                    rng = key(start + r, c)
                    block[r, c, 1] = grid.t_end ** h.value * rng.standard_normal()
        else:
            for sub in row_blocks(rows, m, workers):
                nb = sub.stop - sub.start
                for c in range(components):
                    for r in range(nb):
                        rng = key(start + sub.start + r, c)
                        rng.standard_normal(out=zeta[r])
                        if partial:
                            extra[r] = rng.standard_normal()
                    fgn = _fgn_from_normals(amp, zeta[:nb], spec[:nb], incr[:nb])[:, :k]
                    dest = block[sub, c]
                    if increments:
                        dest[:, 1 : k + 1] = fgn
                    else:
                        np.cumsum(fgn, axis=-1, out=dest[:, 1 : k + 1])
                    if partial:
                        # one pairwise sum per row, so no result depends on
                        # the block, and no BLAS dot, whose threads would
                        # split a long row
                        mean = (fgn * w).sum(axis=-1)
                        last = mean + cond_std * extra[:nb]
                        dest[:, k + 1] = last if increments else dest[:, k] + last
        yield rows, block


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
    conditional law given the uniform increments.  The paths are those of
    :func:`fft_blocks`, synthesised straight into the returned array: the
    worker threads of :func:`fft_ranges` (at most ``threads``, default the
    CPU count) fill its rows with increments, the calling thread sums
    them, and the result does not depend on ``threads``.
    """
    _check_keys(master_seed, first_replicate, count)
    out = np.zeros((count, components, grid.num_nodes))

    def fill(a, b, workers):
        for _ in fft_blocks(h, grid, master_seed, b - a, components,
                            first_replicate + a, out=out[a:b], workers=workers,
                            increments=True):
            pass

    fft_ranges(h, grid, 0, count, threads, fill)
    # np.cumsum holds the interpreter lock, so the workers leave it to here
    # rather than stall each other's normal draws with it
    np.cumsum(out[..., 1:], axis=-1, out=out[..., 1:])
    return out


def path_to_csv(grid: GridSpec, values: np.ndarray, stream) -> None:
    """Write ``t,B1[,B2]`` rows at full double precision; ``values`` has
    shape (components, num_nodes) on ``grid``."""
    cols = ["t"] + [f"B{i + 1}" for i in range(values.shape[0])]
    stream.write(",".join(cols) + "\n")
    for t, row in zip(grid.nodes(), values.T):
        fields = [f"{t:.17g}"] + [f"{v:.17g}" for v in row]
        stream.write(",".join(fields) + "\n")
