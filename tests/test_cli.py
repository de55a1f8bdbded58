"""CLI surface: parsing, subcommands, manifests, exit codes."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fbmlab.bounds import lemma_a1_mc
from fbmlab.cli import CliError, parse_and_dispatch, parse_config
from fbmlab.fbm import GridSpec, sample_fft_batch
from fbmlab.localtime import binning_estimates, default_bin_width, sign_change_estimates


def run(args, capsys=None):
    return parse_and_dispatch(args)


def test_parse_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nH = 0.75\nn_values=64,128,256 # inline\n\n")
    cfg = parse_config(str(p))
    assert cfg == {"H": "0.75", "n_values": "64,128,256"}


def test_parse_config_rejects_garbage(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("just words\n")
    with pytest.raises(CliError):
        parse_config(str(p))


def test_simulate_stdout(capsys):
    rc = run(["simulate", "--H", "0.75", "--n", "8", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "t,B1"
    assert len(lines) == 10  # header + 9 nodes


def test_simulate_output_dir_and_manifest(tmp_path):
    rc = run(["--output-dir", str(tmp_path), "--quiet", "simulate",
              "--H", "0.6", "--n", "16", "--seed", "2", "--components", "2"])
    assert rc == 0
    csv = (tmp_path / "path.csv").read_text()
    assert csv.startswith("t,B1,B2\n")
    man = json.loads((tmp_path / "path.csv.manifest.json").read_text())
    assert man["subcommand"] == "simulate"
    assert man["config"]["H"] == 0.6
    assert man["seed"] == 2
    assert "version" in man


def test_simulate_csv_roundtrip(capsys):
    # the nodes and both components at full double precision, off-grid too
    grid = GridSpec(0.83, 4)
    values = sample_fft_batch(0.6, grid, 3, 1, components=2)[0]
    assert run(["simulate", "--H", "0.6", "--n", "4", "--t", "0.83",
                "--components", "2", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,B1,B2"
    assert len(lines) == grid.num_nodes + 1
    back = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(back[:, 0], grid.nodes())
    np.testing.assert_array_equal(back[:, 1:].T, values)


def test_simulate_methods_agree_in_law_not_samples(capsys):
    run(["simulate", "--H", "0.75", "--n", "8", "--seed", "1", "--method", "exact"])
    exact = capsys.readouterr().out
    run(["simulate", "--H", "0.75", "--n", "8", "--seed", "1", "--method", "fft"])
    fft = capsys.readouterr().out
    assert exact.split("\n")[0] == fft.split("\n")[0]


def test_simulate_thread_flag_does_not_change_output(tmp_path):
    for threads, name in ((1, "a"), (4, "b")):
        d = tmp_path / name
        rc = run(["--output-dir", str(d), "--quiet", "--threads", str(threads),
                  "simulate", "--H", "0.75", "--n", "64", "--seed", "9"])
        assert rc == 0
    assert (tmp_path / "a" / "path.csv").read_bytes() == \
        (tmp_path / "b" / "path.csv").read_bytes()


def test_localtime_csv(capsys):
    rc = run(["localtime", "--H", "0.75", "--n", "128", "--levels", "0,0.5",
              "--replicates", "20", "--seed", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "a,estimate,stderr,estimator,n,H,t"
    assert len(lines) == 3
    est = float(lines[1].split(",")[1])
    assert est >= 0


def test_localtime_negative_levels_space_form(tmp_path):
    outs = []
    for name, levels in (("eq", ["--levels=-1,-0.5,0"]),
                         ("space", ["--levels", "-1,-0.5,0"])):
        d = tmp_path / name
        rc = run(["--output-dir", str(d), "--quiet", "localtime", "--H", "0.75",
                  "--n", "64", *levels, "--replicates", "10", "--seed", "3"])
        assert rc == 0
        outs.append((d / "localtime.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 4  # header + three levels


@pytest.mark.parametrize("estimator", ["sign", "bin"])
def test_localtime_matches_per_path_loop(tmp_path, estimator):
    h, n, t, reps, seed, levels = 0.75, 128, 0.83, 40, 6, (-0.5, 0.0, 0.3)
    rc = run(["--output-dir", str(tmp_path), "--quiet", "localtime", "--H", str(h),
              "--n", str(n), "--t", str(t), "--levels", ",".join(map(str, levels)),
              "--estimator", estimator, "--replicates", str(reps),
              "--seed", str(seed)])
    assert rc == 0
    rows = (tmp_path / "localtime.csv").read_text().strip().split("\n")[1:]
    got = np.array([[float(x) for x in row.split(",")[:3]] for row in rows])
    grid = GridSpec(t, n)
    batch = sample_fft_batch(h, grid, seed, reps)
    eps = default_bin_width(h, n)
    want = []
    for a in levels:
        vals = np.empty(reps)
        for r in range(reps):
            b = batch[r, 0]
            vals[r] = (sign_change_estimates(h, b, grid, a, grid) if estimator == "sign"
                       else binning_estimates(h, b, grid, a, eps))
        want.append((a, vals.mean(), vals.std(ddof=1) / np.sqrt(reps)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_localtime_rejects_zero_eps(capsys):
    for eps in ("0", "nan", "inf"):
        rc = run(["localtime", "--H", "0.75", "--n", "64", "--levels", "0",
                  "--estimator", "bin", "--eps", eps])
        assert rc == 1, eps
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: --eps must be positive and finite"), eps
        assert captured.out == ""


def test_localtime_rejects_zero_replicates(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["localtime", "--H", "0.75", "--n", "64", "--levels", "0",
                  "--replicates", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "replicates" in captured.err
    assert captured.out == ""


def test_simulate_rejects_zero_t(capsys):
    for flag in ("--t", "--T"):
        rc = run(["simulate", "--H", "0.75", "--n", "8", flag, "0"])
        assert rc == 1, flag
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {flag} must be positive and finite, got 0.0"), flag
        assert captured.out == ""


@pytest.mark.parametrize("cmd", [
    ["simulate", "--H", "0.7", "--n", "1", "--t", "1e-12"],
    ["localtime", "--H", "0.7", "--n", "1", "--t", "1e-12", "--levels", "0"]])
def test_one_node_horizon_is_an_error_line(capsys, cmd):
    assert run(cmd) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --t: t_end = 1e-12 is within")
    assert "n = 1: one node" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_simulate_rejects_t_beyond_T(capsys):
    rc = run(["simulate", "--H", "0.75", "--n", "8", "--T", "0.5", "--t", "0.8"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --t (0.8) must not exceed --T (0.5)")
    assert captured.out == ""


def test_simulate_path_does_not_depend_on_T(capsys):
    # the grid ends at t; --T only bounds it
    outs = []
    for extra in (["--T", "2", "--t", "0.5"], ["--T", "0.5"]):
        assert run(["simulate", "--H", "0.75", "--n", "8", "--seed", "1",
                    *extra]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_rate_subcommand(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("H = 0.75\nn_values = 16,32,64\nreplicates = 60\nseed = 5\n")
    rc = run(["rate", "--config", str(cfg)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("H,n,l2_error")
    assert len(lines) == 4


def test_rate_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("H = 0.75\nbanana = 1\n")
    rc = run(["rate", "--config", str(cfg)])
    assert rc == 1
    assert "banana" in capsys.readouterr().err


def _rate_cfg(tmp_path, extra=""):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("H = 0.75\nn_values = 16,32,64\nreplicates = 40\nseed = 5\n"
                   + extra)
    return str(cfg)


def test_rate_pair_22_uses_the_second_component(tmp_path, capsys):
    rc = run(["rate", "--config", _rate_cfg(tmp_path), "--pair", "22"])
    assert rc == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 3
    l2 = [float(r.split(",")[2]) for r in rows]
    assert all(np.isfinite(v) and v > 0 for v in l2)


@pytest.mark.parametrize("pair", ["13", "1", "123"])
def test_rate_rejects_bad_pair(tmp_path, capsys, pair):
    rc = run(["rate", "--config", _rate_cfg(tmp_path), "--pair", pair])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("extra", ["replicates = -5\n", "level = nan\n",
                                   "fine_factor = -3\n", "n_values = 0,16,64\n",
                                   "n_values = 16,64\n", "replicates = 1\n",
                                   "reference = fine_riemann\n",
                                   "fine_factor = 1\n", "n_values = 16,48,64\n",
                                   "t = 0\n", "t = -1\n", "t = nan\n",
                                   "reference = bogus\n", "replicates = 1.5\n",
                                   "H = abc\n", "t = one\n", "seed = x\n",
                                   "n_values = 16,a,64\n", "seed = -1\n"])
def test_rate_rejects_bad_config_values(tmp_path, capsys, extra):
    rc = run(["rate", "--config", _rate_cfg(tmp_path, extra)])
    assert rc == 1
    captured = capsys.readouterr()
    key = extra.split("=")[0].strip()
    assert captured.err.startswith(f"error: {key} ")  # names the config key
    assert captured.out == ""


def test_rate_reference_key_confirms_the_pair(tmp_path):
    # the pair decides the reference; a key that names it is accepted
    cfg = _rate_cfg(tmp_path, "reference = fine_riemann\n")
    assert run(["--output-dir", str(tmp_path), "--quiet", "rate", "--config",
                cfg, "--pair", "12"]) == 0
    man = json.loads((tmp_path / "rate.csv.manifest.json").read_text())
    assert man["config"]["reference"] == "fine_riemann"


def test_localtime_rejects_nonfinite_level(capsys):
    rc = run(["localtime", "--H", "0.75", "--n", "64", "--levels=nan,0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "levels must be finite" in captured.err
    assert captured.out == ""


def test_rate_determinism_across_threads(tmp_path):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("H = 0.75\nn_values = 16,32,64\nreplicates = 50\nseed = 6\n")
    outs = []
    for threads, name in ((1, "t1"), (3, "t3")):
        d = tmp_path / name
        rc = run(["--output-dir", str(d), "--quiet", "--threads", str(threads),
                  "rate", "--config", str(cfg)])
        assert rc == 0
        outs.append((d / "rate.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("estimator", ["sign", "bin"])
def test_localtime_determinism_across_threads(tmp_path, estimator):
    # 7 replicates on an off-grid t: ranges of 7, and of 2, 2 and 3
    outs = []
    for threads in ("1", "3"):
        d = tmp_path / threads
        rc = run(["--output-dir", str(d), "--quiet", "--threads", threads,
                  "localtime", "--H", "0.75", "--n", "64", "--t", "0.83",
                  "--levels", "-0.2,0,0.3", "--estimator", estimator,
                  "--replicates", "7", "--seed", "4"])
        assert rc == 0
        outs.append((d / "localtime.csv").read_bytes())
    assert outs[0] == outs[1]


def test_verify_bounds_lemmas(capsys):
    rc = run(["verify-bounds", "--suite", "lemmas", "--samples", "100000"])
    assert rc == 0
    out = capsys.readouterr().out
    # the MC rows draw --samples normals
    assert f"lemma_a1_mc,0.5,0.75,{lemma_a1_mc(0.5, 100_000, 0):.17g}" in out
    assert "lemma_a2_pass" in out


@pytest.mark.parametrize("samples", ["0", "-5", "99999"])
def test_verify_bounds_lemmas_rejects_too_few_samples(capsys, samples):
    rc = run(["verify-bounds", "--suite", "lemmas", "--samples", samples])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --samples must be >= 100000")
    assert captured.out == ""


def test_verify_bounds_cov(capsys):
    rc = run(["verify-bounds", "--suite", "cov", "--H", "0.75",
              "--samples", "5000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "increment_level_bound_violations,,0.75,0" in out
    assert "theta1_slope" in out


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_bounds_cov_rejects_bad_samples(capsys, samples):
    rc = run(["verify-bounds", "--suite", "cov", "--samples", samples])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --samples ")
    assert captured.out == ""


def test_verify_bounds_accepts_tiny_ratios(capsys):
    # (1 + h) - 1 rounds away from h at these ratios; the small increment
    # must still be taken as the one the code laid out
    rc = run(["verify-bounds", "--suite", "cov", "--samples", "1000",
              "--h-grid", "1e-3,1e-4,1e-5,1e-6,1e-7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("\ntheta1,") == 5
    assert "theta1_slope" in out
    rc = run(["verify-bounds", "--suite", "decoupling", "--samples", "1000",
              "--h-grid", "0.5,0.25,0.125,0.0625,1e-6"])
    assert rc in (0, 2)  # PASS or INCONCLUSIVE, never a validation error
    out = capsys.readouterr().out
    assert "decoupling_discrepancy,9.9999999999999995e-07," in out


@pytest.mark.parametrize("h_grid", ["0.5", "0.5,0.5,0.5"])
def test_verify_bounds_cov_rejects_a_single_h_level(capsys, h_grid):
    # one distinct level gives no slope to report
    rc = run(["verify-bounds", "--suite", "cov", "--samples", "1000",
              "--h-grid", h_grid])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: a slope needs at least 2 distinct")
    assert captured.out == ""


def test_verify_bounds_decoupling_rejects_nonfinite_level(capsys):
    # a validation error, not an INCONCLUSIVE verdict (exit 2)
    rc = run(["verify-bounds", "--suite", "decoupling", "--samples", "1000",
              "--a", "nan"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: a must be finite")
    assert captured.out == ""


def test_verify_bounds_ill_conditioned_sigma_exits_1(capsys):
    rc = run(["verify-bounds", "--suite", "cov", "--samples", "1000",
              "--h-grid", "0.0009765625,9.5367431640625e-07,9.313225746154785e-10"])
    assert rc == 1
    assert "error: Sigma condition number" in capsys.readouterr().err


def test_oracle_values(capsys):
    rc = run(["oracle", "--lemma", "a1", "--theta", "2"])
    assert rc == 0
    assert float(capsys.readouterr().out) == 2.0
    rc = run(["oracle", "--lemma", "moments", "--H", "0.6", "--t", "1",
              "--a", "0", "--p", "1"])
    assert rc == 0
    want = 1.0 / (0.4 * np.sqrt(2 * np.pi))
    assert float(capsys.readouterr().out) == pytest.approx(want)
    # near H = 1, where the p = 1 integrand's inner power underflows
    rc = run(["oracle", "--lemma", "moments", "--H", "0.99", "--a", "0.5"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.3252454394294698,
                                                          rel=1e-10)


@pytest.mark.parametrize("module", ["fbmlab", "fbmlab.cli"])
def test_python_m_runs_the_cli(module):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", module, "oracle", "--lemma", "moments", "--H", "0.75"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # E[L_1(0)] = 1 / ((1 - H) sqrt(2 pi))
    assert float(proc.stdout) == pytest.approx(1.0 / (0.25 * np.sqrt(2 * np.pi)))


def test_oracle_second_moment_converges_at_high_hurst(capsys):
    rc = run(["oracle", "--lemma", "moments", "--H", "0.75", "--a", "0.5",
              "--p", "2"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.8834113144, rel=1e-8)


def test_oracle_unconverged_exits_1(capsys):
    rc = run(["oracle", "--lemma", "moments", "--H", "0.999", "--a", "0",
              "--p", "2"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the two resolutions disagree at H = 0.999, and the message says so
    assert captured.err.startswith("error: quadrature achieved relative tolerance")


def test_invalid_arguments_exit_code(capsys):
    assert run(["simulate", "--H", "1.5", "--n", "8"]) == 1
    assert run(["nonsense"]) == 1
    # each names the argument it rejects
    moments = ["oracle", "--lemma", "moments"]
    for argv, name in ((["simulate", "--H", "0.75", "--n", "0"], "--n"),
                       (moments + ["--t", "inf"], "t"),
                       (moments + ["--t", "nan"], "t"),
                       (moments + ["--a", "nan"], "a"),
                       (moments + ["--a", "inf", "--p", "2"], "a"),
                       *((["oracle", "--lemma", "a1", "--theta", theta],
                          "theta") for theta in ("nan", "inf", "-1")),
                       (["localtime", "--H", "0.75", "--n", "0", "--levels",
                         "0"], "--n"),
                       (["localtime", "--H", "0.75", "--n", "8", "--levels",
                         "abc"], "--levels"),
                       (["verify-bounds", "--suite", "cov", "--h-grid", "abc"],
                        "--h-grid"),
                       (["simulate", "--H", "0.75", "--n", "8", "--T", "nan"],
                        "--T"),
                       (["simulate", "--H", "0.75", "--n", "8", "--t", "inf"],
                        "--t"),
                       *((["localtime", "--H", "0.75", "--n", "8", "--t", t,
                           "--levels", "0"], "--t") for t in ("0", "nan", "inf")),
                       *((["--threads", k, "simulate", "--H", "0.75", "--n",
                           "8"], "--threads") for k in ("0", "-3")),
                       *((["verify-bounds", "--suite", suite, "--H", h], "--H")
                         for suite in ("cov", "decoupling", "lemmas")
                         for h in ("7", "nan", "0")),
                       *((["verify-bounds", "--suite", suite, "--samples", k],
                          "--samples")
                         for suite, k in (("cov", "0"), ("decoupling", "10"),
                                          ("decoupling", "999"),
                                          ("lemmas", "0"))),
                       *((["verify-bounds", "--suite", suite, "--seed", "-1"],
                          "--seed")
                         for suite in ("cov", "decoupling", "lemmas")),
                       (["simulate", "--H", "0.75", "--n", "8", "--seed", "-1"],
                        "--seed"),
                       (["localtime", "--H", "0.75", "--n", "8", "--levels",
                         "0", "--seed", "-1"], "--seed"),
                       (["rate", "--seed", "-1"], "--seed")):
        capsys.readouterr()
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name} "), (argv, captured.err)
        assert captured.out == ""
    # a finite horizon whose node count overflows a float
    for argv in (["simulate", "--H", "0.75", "--n", "64", "--T", "1e308",
                  "--t", "1e308"],
                 ["localtime", "--H", "0.75", "--n", "64", "--t", "1e308",
                  "--levels", "0"]):
        capsys.readouterr()
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), (argv, captured.err)
        assert captured.out == ""


SUBCOMMANDS = ("simulate", "localtime", "rate", "verify-bounds", "oracle")


def _distribution_installed() -> bool:
    try:
        importlib.metadata.distribution("fbmlab")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(
    not _distribution_installed(),
    reason="the fbmlab distribution is not installed (e.g. a PYTHONPATH=src "
           "run), so there is no console script to check")
def test_entry_point_installed():
    scripts = importlib.metadata.distribution("fbmlab").entry_points.select(
        group="console_scripts", name="fbmlab")
    assert [ep.value for ep in scripts] == ["fbmlab.cli:main"]
    exe = shutil.which("fbmlab")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0


def test_entry_point_declared(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fbmlab"]
    module, _, attr = target.partition(":")
    main = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["fbmlab", "--help"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    for cmd in SUBCOMMANDS:
        assert cmd in usage
