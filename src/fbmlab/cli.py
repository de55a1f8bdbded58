"""Command-line interface: simulation, estimation and verification runs.

Every file output is written atomically (temp file + rename) and is
accompanied by a JSON manifest echoing the effective configuration, the
seed, wall time and package version, so runs can be reproduced from the
manifest alone.  Exit codes: 0 success, 1 validation error, 2 for runs
whose statistical verdict is inconclusive (distinct from failure).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .fbm import GridSpec, sample_exact_batch, sample_fft_batch
from .integrals import indicator_measure
from .harness import ExperimentPlan, run_rate_experiment
from .localtime import (
    binning_estimates,
    default_bin_width,
    moment_oracle,
    sign_change_estimates,
)

__all__ = ["main", "parse_and_dispatch", "parse_config"]


class CliError(Exception):
    pass


class Inconclusive(Exception):
    pass


def parse_config(path: str) -> dict:
    """Flat ``key = value`` file with # comments; values stay strings."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, name: str, text: str, manifest: dict) -> None:
    """Write output + manifest into --output-dir, or print to stdout."""
    if args.output_dir:
        base = os.path.join(args.output_dir, name)
        _atomic_write(base, text)
        _atomic_write(base + ".manifest.json", json.dumps(manifest, indent=2) + "\n")
        if not args.quiet:
            print(f"wrote {base}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _manifest(args, config: dict, started: float) -> dict:
    return {
        "subcommand": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "wall_time_s": round(time.monotonic() - started, 3),
        "version": __version__,
    }


def _csv(header, rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _positive_finite(flag: str, value: float) -> float:
    if not 0.0 < value < np.inf:  # NaN fails the comparison too
        raise CliError(f"{flag} must be positive and finite, got {value}")
    return value


def _float_list(flag: str, text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} must be a comma-separated list of numbers, "
                       f"got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args):
    started = time.monotonic()
    if args.n < 1:
        raise CliError(f"--n must be >= 1, got {args.n}")
    grid = GridSpec(_positive_finite("--t", args.t), args.n)
    sampler = sample_fft_batch if args.method == "fft" else sample_exact_batch
    values = sampler(args.H, grid, args.seed, 1, args.components)[0]
    header = ["t"] + [f"B{c + 1}" for c in range(len(values))]
    text = _csv(header, zip(grid.nodes(), *values))
    cfg = {"H": args.H, "n": args.n, "t": args.t,
           "components": args.components, "method": args.method}
    _emit(args, "path.csv", text, _manifest(args, cfg, started))
    return 0


def _cmd_localtime(args):
    started = time.monotonic()
    levels = _float_list("--levels", args.levels)
    if not np.all(np.isfinite(levels)):
        raise CliError("--levels must be finite")
    if args.n < 1:
        raise CliError(f"--n must be >= 1, got {args.n}")
    grid = GridSpec(_positive_finite("--t", args.t), args.n)
    if args.estimator == "sign":
        try:  # the estimator's normaliser (n/t)^{2H-1}, before any path
            grid.mesh_power(2 * args.H - 1)
        except ValueError as exc:
            raise CliError(f"--t {args.t} is too small: {exc}") from None
    eps = default_bin_width(args.H, grid) if args.eps is None else args.eps
    _positive_finite("--eps", eps)
    if args.replicates < 1:
        raise CliError(f"--replicates must be >= 1, got {args.replicates}")
    # the sampler's threads default is the CPU count, as --threads's is;
    # benchmarks/tracing.py sizes this call by the 0.1.0 signature, which
    # has no threads, so it is passed only when given
    opts = {} if args.threads is None else {"threads": args.threads}
    paths = sample_fft_batch(args.H, grid, args.seed, args.replicates, 1,
                             **opts)[:, 0]
    # the estimators run here, after the sampler's workers are done: the
    # calling thread is one of them and its malloc arena is already filled,
    # while the pool threads' per-thread arenas would keep the estimators'
    # temporaries and raise the peak memory
    rows = []
    for a in levels:
        if args.estimator == "sign":
            vals = sign_change_estimates(args.H, paths, grid, a, grid)
        else:
            vals = binning_estimates(args.H, paths, grid, a, eps)
        se = vals.std(ddof=1) / np.sqrt(args.replicates) if args.replicates > 1 else 0.0
        rows.append((a, float(vals.mean()), float(se), args.estimator,
                     args.n, args.H, args.t))
    cfg = {"H": args.H, "n": args.n, "t": args.t, "levels": args.levels,
           "estimator": args.estimator, "eps": eps, "replicates": args.replicates}
    text = _csv(["a", "estimate", "stderr", "estimator", "n", "H", "t"], rows)
    _emit(args, "localtime.csv", text, _manifest(args, cfg, started))
    return 0


# rate config key -> (conversion of its value, default)
_RATE_KEYS = {
    "H": (float, 0.75), "t": (float, 1.0), "level": (float, 0.0),
    "n_values": (lambda v: tuple(int(x) for x in v.split(",")),
                 (64, 128, 256, 512, 1024)),
    "replicates": (int, 0), "fine_factor": (int, 0), "seed": (int, 0),
    "pair": (str, "11"), "reference": (str, None)}


def _cmd_rate(args):
    started = time.monotonic()
    cfg = parse_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(_RATE_KEYS))
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(unknown)}")
    settings = {}
    for key, (kind, default) in _RATE_KEYS.items():
        try:
            settings[key] = kind(cfg[key]) if key in cfg else default
        except ValueError as exc:
            raise CliError(f"{key} has an invalid value: {exc}") from None
    h, n_values, level = (settings[k] for k in ("H", "n_values", "level"))
    if not np.isfinite(level):
        raise CliError("level must be finite")
    pair = args.pair or settings["pair"]
    if len(pair) != 2 or not pair.isdigit():
        raise CliError(f"pair must be two digits such as 11 or 12, not {pair!r}")
    i, j = int(pair[0]), int(pair[1])
    seed = args.seed if args.seed is not None else settings["seed"]
    if seed < 0:  # a negative --seed was refused before dispatch
        raise CliError(f"seed must be >= 0, got {seed}")
    plan = ExperimentPlan(
        hurst=h, n_values=n_values, integrand=indicator_measure(level),
        component_pair=(i, j), t=settings["t"], replicates=settings["replicates"],
        master_seed=seed, fine_factor=settings["fine_factor"],
    )
    # the component pair decides the reference; the key may only confirm it
    reference = settings["reference"]
    if reference not in (None, plan.reference_kind):
        raise CliError(f"reference {reference!r} does not apply to pair "
                       f"{pair}, whose reference is {plan.reference_kind}")
    report = run_rate_experiment(plan, threads=args.threads)
    rows = [(r["H"], r["n"], r["l2_error"], r["stderr"], r["replicates"],
             r["slope"], r["half_width"], r["pass"]) for r in report.rows()]
    text = _csv(["H", "n", "l2_error", "stderr", "replicates", "slope",
                 "half_width", "pass"], rows)
    cfg_echo = {"H": h, "t": plan.t, "n_values": ",".join(map(str, n_values)),
                "level": level, "pair": pair, "seed": seed,
                "reference": plan.reference_kind, "fine_factor": plan.fine_factor,
                "replicates": report.replicates}
    _emit(args, "rate.csv", text, _manifest(args, cfg_echo, started))
    if report.unusable and len(report.unusable) == len(report.n_values):
        raise Inconclusive("all cells noise-dominated")
    return 0


# each verify-bounds suite's least --samples: one triple for cov, the
# floors of decoupling_scaling and lemma_a2_check for the others
_SAMPLES_FLOOR = {"cov": 1, "decoupling": 1000, "lemmas": 10**5}


def _cmd_verify_bounds(args):
    from . import bounds, covariance

    started = time.monotonic()
    # every suite writes H into its rows and manifest
    if not 0.0 < args.H < 1.0:  # NaN fails the comparison too
        raise CliError(f"--H must lie in (0, 1), got {args.H}")
    floor = _SAMPLES_FLOOR[args.suite]
    if args.samples < floor:
        raise CliError(f"--samples must be >= {floor}, got {args.samples}")
    h_grid = _float_list("--h-grid", args.h_grid) if args.h_grid else \
        [2.0**-k for k in range(3, 10)]
    rows = []
    inconclusive = False
    if args.suite == "cov":
        chk = covariance.covariance_increment_bound_check(
            args.H, args.samples, args.seed)
        rows.append(("increment_level_bound_violations", "", args.H,
                     chk["violations"]))
        fac = bounds.factorisation_scaling(args.H, h_grid)
        for h, t1 in zip(fac["h"], fac["theta1"]):
            rows.append(("theta1", h, args.H, t1))
        rows.append(("theta1_slope", "", args.H, fac["slope"]))
    elif args.suite == "decoupling":
        res = bounds.decoupling_scaling(
            args.H, h_grid, a=args.a, mc_samples=args.samples,
            seed=args.seed)
        for row in res["per_h"]:
            rows.append(("decoupling_discrepancy", row["h"], args.H,
                         row["discrepancy"]))
        rows.append(("decoupling_slope", "", args.H, res["slope"]))
        rows.append(("decoupling_status", "", args.H, res["status"]))
        inconclusive = res["status"] == "INCONCLUSIVE"
        if res["status"] == "FAIL":
            raise CliError("decoupling scaling failed with adequate power")
    else:  # lemmas
        for theta in (0.5, 1.0, 2.0):
            mc = bounds.lemma_a1_mc(theta, args.samples, args.seed)
            rows.append(("lemma_a1_mc", theta, args.H, mc))
            rows.append(("lemma_a1_exact", theta, args.H,
                         bounds.lemma_a1_oracle(theta)))
        chk = bounds.lemma_a2_check(1.0, 1.0, args.samples, args.seed)
        rows.append(("lemma_a2_pass", "", args.H, chk["pass"]))
    text = _csv(["check", "param_h", "H", "value"], rows)
    cfg = {"suite": args.suite, "H": args.H, "samples": args.samples,
           "seed": args.seed}
    _emit(args, f"bounds_{args.suite}.csv", text, _manifest(args, cfg, started))
    if inconclusive:
        raise Inconclusive("decoupling discrepancy below noise floor")
    return 0


def _cmd_oracle(args):
    from . import bounds

    if args.lemma == "a1":
        print(_fmt(bounds.lemma_a1_oracle(args.theta)))
    else:  # moments
        try:
            val = moment_oracle(args.H, args.t, args.a, args.p)
        except RuntimeError as exc:  # quadrature did not converge
            raise CliError(str(exc)) from exc
        print(_fmt(val))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fbmlab",
        description="fractional Brownian motion simulation, pathwise "
                    "integral discretisation errors and local times",
    )
    ap.add_argument("--quiet", action="store_true",
                    help="machine-readable stdout only")
    ap.add_argument("--threads", type=int, default=None,
                    help="worker cap, default the CPU count (results are "
                         "independent of it)")
    ap.add_argument("--output-dir", default=None,
                    help="write CSV + manifest here instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample an fBm path as CSV")
    sim.add_argument("--H", type=float, required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--t", type=float, default=1.0)
    sim.add_argument("--components", type=int, default=1, choices=(1, 2))
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--method", choices=("exact", "fft"), default="fft")
    sim.set_defaults(func=_cmd_simulate)

    lt = sub.add_parser("localtime", help="estimate local time over levels")
    lt.add_argument("--H", type=float, required=True)
    lt.add_argument("--n", type=int, required=True)
    lt.add_argument("--t", type=float, default=1.0)
    lt.add_argument("--levels", required=True)
    lt.add_argument("--estimator", choices=("bin", "sign"), default="sign")
    lt.add_argument("--eps", type=float, default=None)
    lt.add_argument("--replicates", type=int, default=100)
    lt.add_argument("--seed", type=int, default=0)
    lt.set_defaults(func=_cmd_localtime)

    rt = sub.add_parser("rate", help="discretisation-error rate experiment")
    rt.add_argument("--config", default=None)
    rt.add_argument("--seed", type=int, default=None)
    rt.add_argument("--pair", default=None, help="component pair, e.g. 11 or 12")
    rt.set_defaults(func=_cmd_rate)

    vb = sub.add_parser("verify-bounds", help="covariance/decoupling checks")
    vb.add_argument("--suite", choices=("cov", "decoupling", "lemmas"),
                    required=True)
    vb.add_argument("--H", type=float, default=0.75)
    vb.add_argument("--h-grid", default=None)
    vb.add_argument("--a", type=float, default=0.0)
    vb.add_argument("--samples", type=int, default=100_000)
    vb.add_argument("--seed", type=int, default=0)
    vb.set_defaults(func=_cmd_verify_bounds)

    orc = sub.add_parser("oracle", help="closed-form Gaussian oracles")
    orc.add_argument("--lemma", choices=("a1", "moments"), required=True)
    orc.add_argument("--theta", type=float, default=1.0)
    orc.add_argument("--H", type=float, default=0.75)
    orc.add_argument("--t", type=float, default=1.0)
    orc.add_argument("--a", type=float, default=0.0)
    orc.add_argument("--p", type=int, default=1, choices=(1, 2))
    orc.set_defaults(func=_cmd_oracle)
    return ap


def parse_and_dispatch(argv=None) -> int:
    ap = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a level list that starts with '-' ("-1,0") as an option
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--levels":
            argv[i : i + 2] = [f"--levels={argv[i + 1]}"]
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.threads is not None and args.threads < 1:
            raise CliError(f"--threads must be >= 1, got {args.threads}")
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:
            raise CliError(f"--seed must be >= 0, got {seed}")
        return args.func(args)
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
