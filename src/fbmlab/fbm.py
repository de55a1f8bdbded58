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
increments are summed into paths, and the one worker-range dispatch: its
docstring states how it splits the replicates between threads and what
each worker holds.  The normals go through two buffers of at most
``BLOCK_VALUES`` = 2^17 values (1 MB of float64 each, split between the
workers), or of one row where a row is longer: the inverse transform
writes over the normals, and each sub-block's increments are summed into
paths in place, while they are still in cache.  A row longer than
``BLOCK_VALUES`` is transformed in four cache-sized steps
(:func:`_fgn_four_step`) rather than by one real inverse FFT.
:func:`sample_fft_batch` copies each sub-block into its output array, so
its memory is the output plus a few MB; the rate experiments hand each
sub-block to their kernels, so they hold no path outside the synthesis
buffers.

Both samplers are deterministic given ``(seed, replicate, component)``:
a path draws from the stream of :func:`substream` for its key, so results
do not depend on execution order.  A sampler call, or each worker range of
one, hashes all of its keys at once with SeedSequence's algorithm and
re-keys one PCG64 generator per path, which gives the same streams bit for
bit without a SeedSequence and a Generator per path; replicate ids stay
below 2^32.  Every row is computed on its own, so a path is bit-identical
whatever batch, block or worker it is drawn in; one path is row ``[0]`` of
a batch of one.

A grid is n equal steps of [0, t].  Both samplers draw the path on [0, 1]
with n steps and scale it by t^H, which is exact by self-similarity: the
t^H is a factor of the cached embedding amplitude or Cholesky factor, 1.0
at t = 1.
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
    "fft_paths",
    "sample_fft_batch",
]

EXACT_NODE_CAP = 4096

# values per row block of the FFT sampler: a block's float64 buffers are
# 1 MB each, so two workers' synthesis buffers (0.5 MB each) stay within a
# 4 MB L2 cache; at i = j the rate experiments' kernels run on each
# sub-block in one crossing call, whose fixed cost no longer needs larger
# sub-blocks
BLOCK_VALUES = 2**17
# replicate ranges per worker thread of fft_paths; each range sets up its
# own keys and buffers, so a few are enough to rebalance a slowed worker
RANGES_PER_WORKER = 3


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
    """``steps`` equal steps of [0, t_end]: nodes t_end * (k / steps) for
    k = 0..steps."""

    t_end: float
    steps: int

    def __post_init__(self):
        if not 0.0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        # an integer (TypeError otherwise), and np.int64(64) keys the caches
        # as 64 does
        object.__setattr__(self, "steps", operator.index(self.steps))
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def full_steps(self) -> int:
        """``steps``, under the name that ``benchmarks/tracing.py`` reads."""
        return self.steps

    def nodes(self) -> np.ndarray:
        return self.t_end * (np.arange(self.steps + 1) / self.steps)

    @property
    def num_nodes(self) -> int:
        return self.steps + 1

    def mesh_power(self, p: float) -> float:
        """(steps / t_end)^p, the p-th power of the inverse mesh, formed as
        steps^p * t_end^-p so that it is steps^p bit for bit at t_end = 1;
        raises ValueError when that overflows a float."""
        try:
            return self.steps**p * self.t_end ** (-p)
        except OverflowError:
            raise ValueError(f"(steps / t_end)^{p:.6g} overflows a float at "
                             f"steps = {self.steps}, t_end = {self.t_end}") from None

    def refinement_of(self, coarse: "GridSpec") -> int:
        """Integer refinement factor relative to ``coarse``; raises if the
        coarse nodes are not an exact subset."""
        r, rest = divmod(self.steps, coarse.steps)
        if rest or r < 1:
            raise ValueError(
                f"grid with n={self.steps} does not refine n={coarse.steps}")
        if self.t_end != coarse.t_end:
            raise ValueError("grids must share t_end")
        return r


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
    """Cholesky factor of the covariance of the nodes k / steps, k >= 1, of
    [0, 1], times t_end^H.  Cached and shared."""
    ts = np.arange(1, grid.steps + 1) / grid.steps
    chol = _cholesky_with_jitter(fbm_covariance(h, ts[:, None], ts[None, :]))
    chol *= grid.t_end**h.value
    return chol


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
                         t_end: float) -> np.ndarray:
    """Half-spectrum amplitude sqrt(m * eigs[:m/2 + 1]) of the circulant
    embedding of the unit-lag fGn covariance, with the 1/sqrt(2) of the
    interior modes folded in, scaled to n_increments steps of [0, t_end] by
    n_increments^{-H}, then t_end^H; m = 2 * (len - 1). Read-only
    (shared)."""
    m = 1
    while m < 2 * n_increments:
        m *= 2
    gamma = fgn_autocovariance(h_value, np.arange(m // 2 + 1))
    # the circulant's first row (gamma, then gamma mirrored) is even, so its
    # eigenvalues are real: m times the real inverse transform of gamma
    eigs = m * np.fft.irfft(gamma, n=m)[: m // 2 + 1]
    neg = eigs < 0
    if np.any(neg):
        # an interior eigenvalue j stands for eigenvalue m - j too
        count = np.full(m // 2 + 1, 2.0)
        count[[0, -1]] = 1.0
        clamped_mass = -(count[neg] * eigs[neg]).sum()
        if clamped_mass > 1e-6 * (count * np.abs(eigs)).sum():
            raise EmbeddingError(
                f"negative embedding mass {clamped_mass:.3e} for H={h_value}, "
                f"N={n_increments}"
            )
        eigs = np.clip(eigs, 0.0, None)
    amp = np.sqrt(eigs * m)
    amp[1:-1] /= np.sqrt(2.0)
    amp *= n_increments ** (-h_value)
    amp *= t_end**h_value
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


def _four_step_shape(m: int) -> tuple:
    """(M1, M2/2 + 1): the shape of one row of the spectrum buffer of the
    four-step transform of length m = M1 M2, M1 the largest power of two
    with M1 <= M2."""
    m1 = 1 << (m.bit_length() - 1) // 2
    return m1, m // m1 // 2 + 1


@lru_cache(maxsize=4)
def _four_step_twiddles(m: int) -> tuple:
    """The twiddle factors e^{2 pi i j k / m}, j < M1 and k <= M2/2, of the
    four-step transform of length m as two small factors: with j = R a + b,
    R the largest power of two with R^2 <= M1, ``outer[a, 0, k]`` is
    e^{2 pi i R a k / m} and ``inner[b, k]`` is e^{2 pi i b k / m}.  They
    hold (M1/R + R) (M2/2 + 1) values, 0.2 MB at m = 2^18 against 2.1 MB
    for the whole table, and stay in cache.  Read-only (shared)."""
    m1, width = _four_step_shape(m)
    r = 1 << (m1.bit_length() - 1) // 2
    k = np.arange(width)
    outer = np.exp(2j * np.pi / m * (r * np.arange(m1 // r)[:, None, None] * k))
    inner = np.exp(2j * np.pi / m * (np.arange(r)[:, None] * k))
    outer.flags.writeable = inner.flags.writeable = False
    return outer, inner


def _fgn_four_step(amp: np.ndarray, zeta: np.ndarray,
                   spec: np.ndarray) -> np.ndarray:
    """:func:`_fgn_from_normals` in four steps (Bailey, J. Supercomputing 4,
    1990), for rows too long for a core's cache: the same modes from the
    same normals, with ``spec`` of shape (rows, M1, M2/2 + 1), m = M1 M2.
    Mode k = M2 j + l of the full Hermitian spectrum, l <= M2/2, goes to
    ``spec[:, j, l]``; rows j >= M1/2 hold modes from m/2 on, the
    conjugates of modes m - k.  An inverse transform of length M1 down the
    columns, a twiddle, and a real inverse transform of length M2 along
    each row give increment j + M1 n at [j, n], written through a
    transposed view of ``zeta``.  Returns ``zeta``."""
    rows, m = zeta.shape
    half = m // 2
    m1, width = spec.shape[1:]
    m2 = m // m1
    h1 = m1 // 2
    top, bottom = spec[:, :h1], spec[:, h1:]
    # modes k = M2 j + l < m/2 of the top rows, straight from the normals
    a = amp[:half].reshape(h1, m2)[:, :width]
    np.multiply(zeta[:, :half].reshape(rows, h1, m2)[..., :width], a,
                out=top.real)
    np.multiply(zeta[:, half:].reshape(rows, h1, m2)[..., :width], a,
                out=top.imag)
    # mode m/2 + q of the bottom rows, q = M2 i + l, is the conjugate of
    # mode p = m/2 - q: amp[p] (zeta[p] - i zeta[m/2 + p]), and zeta[m - q]
    # is rev[q - 1]
    rev = zeta[:, ::-1]
    a = amp[half:0:-1].reshape(h1, m2)[:, :width]
    np.multiply(rev[:, half - 1 : m - 1].reshape(rows, h1, m2)[..., :width], a,
                out=bottom.real)
    im = rev[:, :half].reshape(rows, h1, m2)
    np.multiply(im[..., : width - 1], a[:, 1:], out=bottom.imag[..., 1:])
    np.multiply(im[:, :-1, m2 - 1], a[1:, 0], out=bottom.imag[:, 1:, 0])
    np.negative(bottom.imag, out=bottom.imag)
    spec.imag[:, [0, h1], 0] = 0.0  # modes 0 and m/2 are real
    np.fft.ifft(spec, axis=1, out=spec)
    outer, inner = _four_step_twiddles(m)
    blocks = spec.reshape(rows, len(outer), len(inner), width)
    np.multiply(blocks, outer, out=blocks)
    np.multiply(blocks, inner, out=blocks)
    np.fft.irfft(spec, n=m2, axis=-1,
                 out=zeta.reshape(rows, m2, m1).transpose(0, 2, 1))
    return zeta


def _transform(m: int):
    """The half-spectrum transform of rows of m normals and the shape of one
    row of its spectrum buffer: one real inverse FFT while a row fits in
    ``BLOCK_VALUES``, where it is faster, and four cache-sized steps
    (:func:`_fgn_four_step`) beyond."""
    if m > BLOCK_VALUES:
        _four_step_twiddles(m)
        return _fgn_four_step, _four_step_shape(m)
    return _fgn_from_normals, (m // 2 + 1,)


def resolve_threads(threads=None) -> int:
    """Worker cap: ``threads``, or the CPU count when None; raises
    TypeError unless ``threads`` is an integer, and ValueError when it is
    below 1."""
    if threads is None:
        return os.cpu_count() or 1
    threads = operator.index(threads)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def fft_paths(h, grid: GridSpec, master_seed: int, first_replicate: int,
              count: int, take, threads=None, components: int = 1,
              first_component: int = 0) -> None:
    """Circulant-embedding paths of ``count`` replicates from
    ``first_replicate`` on, handed to ``take(start, paths)`` one sub-block at
    a time: ``paths`` (shape (rows, components, num_nodes), column 0 the
    origin, 0.0) holds replicates ``first_replicate + start`` onwards and is
    a view of a reused buffer, valid until ``take`` returns.  Components
    likewise count from ``first_component``: ``paths[r, c]`` is the path
    keyed (master_seed, first_replicate + start + r, first_component + c),
    so one component of a multi-component batch is drawn alone.

    The paths are drawn on ``workers`` threads, at most
    ``resolve_threads(threads)`` (default the CPU count) and at most
    ``count``, so ``take`` may run on several threads at once, each with
    its own sub-blocks.  One worker draws every replicate in the calling
    thread.  More workers share ``RANGES_PER_WORKER`` contiguous replicate
    ranges each, handed out in order: a worker takes the next range when
    it finishes one, so a worker whose CPU is taken by other load leaves
    its later ranges to the others.  The calling thread is one of the
    workers, beside ``workers - 1`` pool threads: set-up and one-thread
    runs have already filled its malloc arena, so it draws without raising
    the peak memory, where an idle caller would leave each worker to fill
    an arena of its own.  ``concurrent.futures``, which loads ``logging``,
    is imported only when a pool starts.  Once a range raises (a
    ``KeyboardInterrupt`` in the caller too), no further range is handed
    out, and the exception propagates when the ranges already taken have
    finished.  The workers share the cached embedding spectrum and the
    twiddle factors of a long row's transform, so those are computed
    before the pool starts.

    Each range hashes its keys once and synthesises its rows in sub-blocks
    of at most ``BLOCK_VALUES // workers`` embedding values (at least one
    row) through two buffers of its own: the normals, one spare column
    before each row, and their spectrum (:func:`_transform`).  The
    transform writes the increments over the normals, and they are summed
    into paths in place, from the origin in the spare column, so the paths
    never leave the normals buffer.  While a row fits in ``BLOCK_VALUES //
    workers`` values, the workers together hold what one alone would; a
    longer row is a sub-block of its own, so each worker holds a whole
    row's two buffers (about 4 MB at m = 2^18).  Every row is computed on
    its own, so the paths do not depend on ``threads``.
    """
    h = as_hurst(h)
    _check_keys(master_seed, first_replicate, count)
    workers = min(resolve_threads(threads), count)

    def draw(a, b):
        _fft_range(h, grid, master_seed, first_replicate, a, b, take,
                   workers, components, first_component)

    if workers <= 1:
        if count:
            draw(0, count)
        return
    parts = workers * RANGES_PER_WORKER
    cuts = [count * p // parts for p in range(parts + 1)]
    todo = deque((a, b) for a, b in zip(cuts, cuts[1:]) if b > a)
    amp = _embedding_amplitude(h.value, grid.steps, grid.t_end)
    _transform(2 * (amp.shape[0] - 1))  # a long row's twiddles

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
                draw(a, b)
        except BaseException:
            todo.clear()  # hand out no further range
            raise

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
    for helper in helpers:
        helper.result()


def _fft_range(h: HurstIndex, grid: GridSpec, master_seed: int,
               first_replicate: int, a: int, b: int, take, workers: int,
               components: int, first_component: int) -> None:
    """The paths of replicates ``first_replicate + [a, b)``, handed to
    ``take(a + start, paths)`` one sub-block at a time (:func:`fft_paths`)."""
    count = b - a
    key = _keyed_streams(master_seed, first_replicate + a, count, components,
                         first_component)
    k = grid.steps
    amp = _embedding_amplitude(h.value, k, grid.t_end)
    m = 2 * (amp.shape[0] - 1)
    # sub-blocks of as many rows as fit in the workers' share of the
    # block budget (at least one row)
    sub_rows = min(count, max(1, BLOCK_VALUES // workers // (components * m)))
    # m >= 2k, so the k + 1 nodes fit in m + 1
    zeta = np.empty((sub_rows, components, m + 1))
    transform, spec_shape = _transform(m)
    spec = np.empty((sub_rows, *spec_shape), dtype=complex)
    for start in range(0, count, sub_rows):
        nb = min(sub_rows, count - start)
        for c in range(components):
            normals = zeta[:nb, c, 1:]
            for r in range(nb):
                key(start + r, c).standard_normal(out=normals[r])
            transform(amp, normals, spec[:nb])
            zeta[:nb, c, 0] = 0.0  # the origin, which the cumsum keeps
            path = zeta[:nb, c, : k + 1]
            np.cumsum(path, axis=-1, out=path)
        take(a + start, zeta[:nb, :, : k + 1])


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
    The sub-blocks of :func:`fft_paths`, drawn on at most ``threads``
    workers, are copied into the returned array, which does not depend on
    ``threads``.
    """
    _check_keys(master_seed, first_replicate, count)
    out = np.empty((count, components, grid.num_nodes))

    def take(start, paths):
        out[start : start + len(paths)] = paths

    fft_paths(h, grid, master_seed, first_replicate, count, take, threads,
              components)
    return out
