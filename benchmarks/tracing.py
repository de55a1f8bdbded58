"""Outside-in tracing of fbmlab: span wrappers on module attributes.

The benchmark replaces the attributes through which one fbmlab module
calls into another (and the entry points the benchmark calls itself) with
wrappers that record a span: name, thread id, start, end, parent and a few
sizes taken from the call's arguments.  Spans stay in memory and are
analysed and written once, when the run ends.  Nothing under ``src/``
changes.

A span's parent is the innermost open span of its own thread; a span that
opens in a pool thread with nothing open there takes the innermost open
span of the main thread, which is the call that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    via: str
    tid: int
    start: float
    end: float
    size: tuple
    raised: bool

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# sizes recorded from call arguments (signatures as in fbmlab 0.1.0)
def _batch_size(h, grid, master_seed, count, components=1, first_replicate=0):
    return (count * components, grid.num_nodes, grid.full_steps)


def _crossing_size(path, a, grid, component=1):
    return (grid.num_nodes,)


def _riemann_size(path, f, pair, grid):
    return (grid.num_nodes,)


def _oracle_size(h, t, a, p=1):
    return (p,)


# (module, attribute, span name, size function)
PATCHES = (
    ("fbmlab.harness", "sample_fft_batch", "fbm.sample_fft_batch", _batch_size),
    ("fbmlab.harness", "sign_change_error", "integrals.sign_change_error", _crossing_size),
    ("fbmlab.harness", "riemann_sum", "integrals.riemann_sum", _riemann_size),
    ("fbmlab.harness", "fit_rate", "harness.fit_rate", None),
    ("fbmlab.fbm", "substream", "fbm.substream", None),
    ("fbmlab.localtime", "sign_change_error", "integrals.sign_change_error", _crossing_size),
    ("fbmlab.cli", "sample_fft_batch", "fbm.sample_fft_batch", _batch_size),
    ("fbmlab.cli", "sign_change_estimator", "localtime.sign_change_estimator", None),
    ("fbmlab.cli", "binning_estimator", "localtime.binning_estimator", None),
    ("fbmlab.cli", "run_rate_experiment", "harness.run_rate_experiment", None),
    # entry points the benchmark calls, directly or through the CLI
    ("fbmlab.cli", "parse_and_dispatch", "cli.parse_and_dispatch", None),
    ("fbmlab.fbm", "sample_fft_batch", "fbm.sample_fft_batch", _batch_size),
    ("fbmlab.fbm", "sample_exact_batch", "fbm.sample_exact_batch", _batch_size),
    ("fbmlab.localtime", "moment_oracle", "localtime.moment_oracle", _oracle_size),
    ("fbmlab.bounds", "density_shift_integral", "bounds.density_shift_integral", None),
    ("fbmlab.bounds", "factorisation_scaling", "bounds.factorisation_scaling", None),
    ("fbmlab.covariance", "covariance_increment_bound_check",
     "covariance.covariance_increment_bound_check", None),
)


class Tracer:
    """Records spans while installed; ``install`` and ``uninstall`` swap
    the wrapped module attributes in and out."""

    def __init__(self):
        self.spans: list[Span] = []
        self.windows: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def wrap(self, fn, name: str, via: str, size_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = size_fn(*args, **kwargs) if size_fn else ()
            stack, sid, parent = self._open()
            raised = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                # list.append is atomic under the interpreter lock
                self.spans.append(Span(sid, parent, name, via, threading.get_ident(),
                                       start, end, size, raised))
        return traced

    def install(self) -> None:
        for mod_name, attr, name, size_fn in PATCHES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                if f"{mod_name}.{attr}" not in self.missing:
                    self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name, mod_name.split(".")[-1], size_fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def traced_pass(self, body):
        """Run ``body`` with the wrappers installed under a root span; the
        pass window is the root span's extent."""
        self.install()
        try:
            return self.wrap(body, "bench.pass", "bench")()
        finally:
            self.uninstall()
            root = self.spans[-1]  # the root closes last: the pool has joined
            self.windows.append((root.start, root.end))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of each span: its duration minus its same-thread direct
    children, split into work and the wait for children in other threads
    (a call that hands work to a pool and blocks on it)."""
    by_id = {s.id: s for s in spans}
    self_t = {s.id: s.dur for s in spans}
    remote = defaultdict(list)
    for s in spans:
        p = by_id.get(s.parent)
        if p is None:
            continue
        if p.tid == s.tid:
            self_t[p.id] -= s.dur
        else:
            remote[p.id].append((s.start, s.end))
    wait = {i: min(self_t[i], _union_length(iv)) for i, iv in remote.items()}
    return self_t, wait


def pool_glue(spans, parent_ids):
    """Per pool thread, the time between its first and last child span of
    each parent in ``parent_ids`` not spent in those children: the glue
    code of the parent's layer that runs in the pool thread."""
    children = defaultdict(lambda: defaultdict(list))
    for s in spans:
        if s.parent in parent_ids:
            children[s.parent][s.tid].append(s)
    glue = defaultdict(float)
    for pid, by_tid in children.items():
        for tid, ks in by_tid.items():
            if tid != parent_ids[pid]:
                glue[tid] += (max(k.end for k in ks) - min(k.start for k in ks)
                              - sum(k.dur for k in ks))
    return glue


def thread_accounts(spans, windows, self_t, wait, glue):
    """Per thread: each layer's self time, the wait for pool threads, the
    pool-thread glue (counted to the harness) and the idle time; these must
    add up to the traced wall time (the sum of the pass windows)."""
    wall = sum(e - s for s, e in windows)
    by_id = {s.id: s for s in spans}
    per_thread = defaultdict(lambda: defaultdict(float))
    tops = defaultdict(list)
    for s in spans:
        w = wait.get(s.id, 0.0)
        per_thread[s.tid][s.layer] += self_t[s.id] - w
        if w:
            per_thread[s.tid]["wait"] += w
        p = by_id.get(s.parent)
        if p is None or p.tid != s.tid:
            tops[s.tid].append((s.start, s.end))
    for tid, g in glue.items():
        per_thread[tid]["harness"] += g
    accounts = {}
    worst = 0.0
    for tid, layers in per_thread.items():
        idle = wall - _union_length(tops[tid]) - glue.get(tid, 0.0)
        worst = max(worst, abs(sum(layers.values()) + idle - wall))
        accounts[tid] = {**dict(sorted(layers.items())), "idle": idle}
    return wall, accounts, worst


def _pct_us(durs, q):
    return float(np.percentile(np.asarray(durs) * 1e6, q)) if durs else 0.0


def _embedding_m(full_steps: int) -> int:
    m = 1
    while m < 2 * full_steps:
        m *= 2
    return m if full_steps > 0 else 0


def layer_metrics(tracer: Tracer, threads: int):
    """Per-layer metrics per traced pass, and the per-thread accounting."""
    spans = tracer.spans
    passes = max(len(tracer.windows), 1)
    self_t, wait = self_times(spans)
    rre = [s for s in spans if s.name == "harness.run_rate_experiment"]
    glue = pool_glue(spans, {r.id: r.tid for r in rre})
    wall, accounts, worst = thread_accounts(spans, tracer.windows, self_t, wait, glue)
    if worst > 1e-6 * max(wall, 1.0):
        raise RuntimeError(f"trace accounting is off by {worst:.3g} s")

    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
    m = {}

    def group(name, fields):
        ss = named.get(name, [])
        durs = [s.dur for s in ss]
        vals = {
            "calls": len(ss) / passes,
            "s": sum(durs) / passes,
            "self_s": sum(self_t[s.id] for s in ss) / passes,
            "us_p50": _pct_us(durs, 50),
            "us_p99": _pct_us(durs, 99),
        }
        for f in fields:
            m[f"{name}.{f}"] = vals[f]
        return ss

    # fbm: the batch samplers; self time excludes nested substream spans
    for name in ("fbm.sample_fft_batch", "fbm.sample_exact_batch"):
        ss = group(name, ("calls", "self_s"))
        paths = sum(s.size[0] for s in ss)
        nodes = sum(s.size[0] * s.size[1] for s in ss)
        m[f"{name}.paths"] = paths / passes
        m[f"{name}.ns_per_node"] = (
            sum(self_t[s.id] for s in ss) * 1e9 / nodes if nodes else 0.0)
    fft = named.get("fbm.sample_fft_batch", [])
    ms = [(s.size[0], s.size[1], _embedding_m(s.size[2])) for s in fft]
    # complex FFT of length m per path: 5 m log2 m flop; bytes of the
    # normals (8m), the complex spectrum and its transform (16m each) and
    # the increments plus output paths (16 per node)
    flop = sum(p * 5 * mm * np.log2(mm) for p, _, mm in ms if mm > 1)
    nbytes = sum(p * (40 * mm + 16 * n) for p, n, mm in ms)
    fft_self = sum(self_t[s.id] for s in fft)
    m["fbm.fft_gflop_computed"] = flop / 1e9 / passes
    m["fbm.bytes_computed"] = nbytes / passes
    m["fbm.gflop_per_s_computed"] = flop / 1e9 / fft_self if fft_self else 0.0
    m["fbm.embedding_m"] = max((mm for _, _, mm in ms), default=0)
    group("fbm.substream", ("calls", "s", "us_p50", "us_p99"))

    # integrals: the crossing and Riemann kernels
    ss = group("integrals.sign_change_error", ("calls", "s", "us_p50", "us_p99"))
    nodes = sum(s.size[0] for s in ss)
    m["integrals.crossing_ns_per_node"] = (
        sum(s.dur for s in ss) * 1e9 / nodes if nodes else 0.0)
    group("integrals.riemann_sum", ("calls", "s", "us_p50", "us_p99"))

    # localtime
    group("localtime.sign_change_estimator", ("calls", "self_s"))
    group("localtime.binning_estimator", ("calls", "s"))
    oracle = named.get("localtime.moment_oracle", [])
    m["localtime.moment_oracle.calls"] = len(oracle) / passes
    m["localtime.moment_oracle.p1_s"] = sum(s.dur for s in oracle if s.size == (1,)) / passes
    m["localtime.moment_oracle.p2_s"] = sum(s.dur for s in oracle if s.size == (2,)) / passes
    m["localtime.moment_oracle.failed"] = sum(s.raised for s in oracle) / passes

    # bounds and covariance
    group("bounds.density_shift_integral", ("calls", "s"))
    group("bounds.factorisation_scaling", ("s",))
    group("covariance.covariance_increment_bound_check", ("s",))

    # harness: the rate experiment, its pool threads and the fit
    group("harness.run_rate_experiment", ("s",))
    group("harness.fit_rate", ("s",))
    rre_ids = {r.id for r in rre}
    busy = sum(s.dur for s in spans if s.parent in rre_ids)
    span_wall = sum(r.dur for r in rre)
    # main-thread self time less the wait for the pool, plus pool glue
    harness_self = sum(self_t[r.id] - wait.get(r.id, 0.0) for r in rre) + sum(glue.values())
    m["harness.self_s"] = harness_self / passes
    m["harness.chunks"] = sum(1 for s in fft if s.via == "harness") / passes
    m["harness.worker_busy_frac"] = busy / (threads * span_wall) if span_wall else 0.0

    # cli
    group("cli.parse_and_dispatch", ("calls", "s", "self_s"))
    m["cli.self_s"] = m.pop("cli.parse_and_dispatch.self_s")

    pool = sorted(t for t in accounts if t != tracer._main)
    names = {tid: f"pool-{i}" for i, tid in enumerate(pool)}
    names[tracer._main] = "main"
    report = {
        "passes": passes,
        "wall_s": wall,
        "accounting_error_s": worst,
        "missing_attributes": tracer.missing,
        "threads": {names[t]: a for t, a in accounts.items()},
    }
    return m, report


def spans_json(tracer: Tracer):
    """Spans as lists, times in seconds from the first pass, to 0.1 us."""
    t0 = tracer.windows[0][0] if tracer.windows else 0.0
    return [[s.id, s.parent, s.name, s.via, s.tid, round(s.start - t0, 7),
             round(s.end - t0, 7), list(s.size), s.raised] for s in tracer.spans]
