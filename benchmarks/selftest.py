"""Self-tests of the fbmlab benchmark, at tiny sizes.

    python3 benchmarks/selftest.py

They check that every workload emits every named metric with its unit,
that corrupted outputs are counted as failed operations, and that the
benchmark refuses to run without the fbmlab sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import PassResult  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_metric_tables(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(set(run.WORKLOAD_NAMES), set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_every_metric_is_emitted_with_its_unit(self):
        for name in run.WORKLOAD_NAMES:
            for trace, table in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    proc = _bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                                  "--trace", trace, "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"], proc.stderr)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in res["metrics"].items()}, table)

    def test_refuses_to_run_without_sources(self):
        out_root = ROOT / ".bench_out"
        out_root.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out_root))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "benchmarks",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench(bare, "--workload", "oracles", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class FailureCountTest(unittest.TestCase):
    def setUp(self):
        out_root = ROOT / ".bench_out"
        out_root.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="selftest-", dir=out_root)

    def tearDown(self):
        shutil.rmtree(self.workdir)

    def test_wrong_csv_byte_is_a_failed_operation(self):
        wl = workloads.RateCrossing(5, self.workdir, tiny=True)
        ref = PassResult()
        wl.reference(ref)
        self.assertEqual((ref.attempted, ref.failed), (1, 0))
        self.assertEqual(wl.run_pass().failed, 0)
        wl.expected = wl.expected[:-2] + bytes([wl.expected[-2] ^ 1]) + wl.expected[-1:]
        res = wl.run_pass()
        self.assertEqual((res.attempted, res.failed), (1, 1))

    def test_failed_z_check_is_a_failed_operation(self):
        wl = workloads.ShortPaths(5, self.workdir, tiny=True)
        self.assertEqual(wl.run_pass().failed, 0)
        real = workloads.fbm.fgn_autocovariance
        with mock.patch.object(workloads.fbm, "fgn_autocovariance",
                               lambda *a, **k: 1.2 * real(*a, **k)):
            res = wl.run_pass()
        self.assertEqual((res.attempted, res.failed), (4, 1))

    def test_unconverged_oracle_is_declined_other_errors_fail(self):
        wl = workloads.Oracles(5, self.workdir, tiny=True)
        real = workloads.localtime.moment_oracle

        def oracle(raises):
            def fn(h, t, a, p=1):
                if p == 2:
                    raise raises
                return real(h, t, a, p)
            return fn

        unconverged = RuntimeError(f"{workloads.UNCONVERGED} 2e-06 > 1e-6")
        with mock.patch.object(workloads.localtime, "moment_oracle", oracle(unconverged)):
            res = wl.run_pass()
        self.assertEqual((res.failed, res.declined), (0, 1))
        with mock.patch.object(workloads.localtime, "moment_oracle",
                               oracle(RuntimeError("boom"))):
            res = wl.run_pass()
        self.assertEqual((res.failed, res.declined), (1, 0))


if __name__ == "__main__":
    unittest.main()
