"""Self-test of the benchmark: small-size runs pass, corrupted ones fail.

Run from the repository root:

    python3 -m unittest perfbench/test_gate.py      (or: python3 perfbench/test_gate.py)

It runs every workload at ``--size small`` through ``run.py`` (untraced
and traced, a few seconds in all), then checks that the output gate
rejects copies of good run directories with a residual above tol, two
lamination members swapped at one site, a garbled column in
``cantorus.csv`` or ``injectivity.csv``, or ``summary.json`` missing.
"""

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_csv(path, rows):
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        (HERE / ".runs").mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / ".runs"))
        cls.works, cls.dirs = {}, {}
        for name in workloads.NAMES:
            work = workloads.make(name, 7, size="small")
            spec = cls.tmp / f"{name}.json"
            spec.write_text(json.dumps(work["spec"]))
            out = cls.tmp / name
            sample = run.spawn([sys.executable, "-m", "lamlab.cli", work["command"],
                                "--spec", str(spec), "--out", str(out)],
                               cls.tmp / f"{name}.log", 120)
            if sample.code != 0:
                raise RuntimeError(f"{name} small run exited with {sample.code}: "
                                   + (cls.tmp / f"{name}.log").read_text())
            cls.works[name], cls.dirs[name] = work, out

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def corrupt_copy(self, name):
        copy = self.tmp / f"{name}-{self.id().rsplit('.', 1)[-1]}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.dirs[name], copy)
        return copy

    def problems(self, name, run_dir):
        return gate.check(name, run_dir, self.works[name], run.TOL)

    def test_good_run_directories_pass(self):
        for name in workloads.NAMES:
            with self.subTest(name):
                self.assertEqual(self.problems(name, self.dirs[name]), [])

    def test_small_mode_runs_every_workload(self):
        for name in workloads.NAMES:
            for trace in ("0", "1"):
                with self.subTest(name=name, trace=trace):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = run.main(["--workload", name, "--seed", "3",
                                         "--seconds", "0", "--trace", trace,
                                         "--size", "small"])
                    result = json.loads(out.getvalue().splitlines()[-1])
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    units = run.LAYER_METRICS if trace == "1" else run.END_TO_END
                    self.assertEqual(set(result["metrics"]), set(units))

    def test_residual_above_tol_fails(self):
        copy = self.corrupt_copy("lamination-1d")
        path = copy / "member_000.csv"
        rows = read_csv(path)
        row = next(r for r in rows[1:] if r[3])
        row[3] = repr(10 * run.TOL)
        write_csv(path, rows)
        self.assertTrue(any("residual" in p for p in self.problems("lamination-1d", copy)))

        copy = self.corrupt_copy("sweep-2d")
        path = copy / "sweep.csv"
        rows = read_csv(path)
        rows[1][2] = repr(10 * run.TOL)
        write_csv(path, rows)
        self.assertTrue(any("residual" in p for p in self.problems("sweep-2d", copy)))

    def test_members_swapped_at_one_site_fail(self):
        copy = self.corrupt_copy("lamination-1d")
        s_values = json.loads((copy / "summary.json").read_text())["s_values"]
        a, b = sorted(range(len(s_values)), key=s_values.__getitem__)[:2]
        rows_a = read_csv(copy / f"member_{a:03d}.csv")
        rows_b = read_csv(copy / f"member_{b:03d}.csv")
        site = next(i for i in range(1, len(rows_a))
                    if float(rows_b[i][2]) - float(rows_a[i][2]) > 1e-6)
        rows_a[site][2], rows_b[site][2] = rows_b[site][2], rows_a[site][2]
        write_csv(copy / f"member_{a:03d}.csv", rows_a)
        write_csv(copy / f"member_{b:03d}.csv", rows_b)
        problems = self.problems("lamination-1d", copy)
        self.assertTrue(any("cross" in p for p in problems), problems)

    def test_garbled_csv_columns_fail(self):
        copy = self.corrupt_copy("cantorus-1d")
        path = copy / "cantorus.csv"
        rows = read_csv(path)
        for row in rows[1:]:
            row[2] = repr(float(row[2]) + 0.1)
        write_csv(path, rows)
        problems = self.problems("cantorus-1d", copy)
        self.assertTrue(any("mean momentum" in p for p in problems), problems)
        self.assertTrue(any("map step" in p for p in problems), problems)

        copy = self.corrupt_copy("measure-injectivity")
        path = copy / "injectivity.csv"
        rows = read_csv(path)
        rows[-1][3] = repr(float(rows[-1][2]) - 0.1)
        write_csv(path, rows)
        problems = self.problems("measure-injectivity", copy)
        self.assertTrue(any("below" in p for p in problems), problems)
        self.assertTrue(any("min_margin" in p for p in problems), problems)

        copy = self.corrupt_copy("measure-injectivity")
        path = copy / "injectivity.csv"
        rows = read_csv(path)
        rows[1][2] = repr(float(rows[1][2]) + 0.01)
        write_csv(path, rows)
        problems = self.problems("measure-injectivity", copy)
        self.assertTrue(any("l1 distance" in p for p in problems), problems)

    def test_missing_summary_fails(self):
        for name in workloads.NAMES:
            with self.subTest(name):
                copy = self.corrupt_copy(name)
                (copy / "summary.json").unlink()
                self.assertIn("missing summary.json", self.problems(name, copy))

    def test_digest_sees_one_changed_byte(self):
        copy = self.corrupt_copy("cantorus-1d")
        self.assertEqual(gate.digest(copy), gate.digest(self.dirs["cantorus-1d"]))
        path = copy / "cantorus.csv"
        data = bytearray(path.read_bytes())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
        path.write_bytes(bytes(data))
        self.assertNotEqual(gate.digest(copy), gate.digest(self.dirs["cantorus-1d"]))


if __name__ == "__main__":
    unittest.main()
