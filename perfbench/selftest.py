"""Self-test of the benchmark's checks, task generator and tracer.

    python3 perfbench/selftest.py

Shows that a deliberately wrong output counts as a failed task, not a pass,
and that correct outputs from the real CLI pass.  Runs in a few seconds.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
(ROOT / ".perfbench-work").mkdir(exist_ok=True)
sys.pycache_prefix = str(ROOT / ".perfbench-work" / "pycache")

import contextlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import unittest  # noqa: E402

import run  # noqa: E402
from checks import Reference, check_task  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import TASKS_PER_RUN, generate  # noqa: E402

run.import_habiro()
import habiro.cli  # noqa: E402


def cli_output(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = habiro.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": "", "error": None}


def ok(stdout: str) -> dict:
    return {"rc": 0, "stdout": stdout, "stderr": "", "error": None}


CROSS = {"kind": "crosscheck-expand", "family": "torus2", "params": {"m": 2, "ell": 1},
         "N": 8, "transform": "ratio", "id": 0,
         "argv": [["crosscheck", "--family", "torus2", "--m", "2", "--ell", "1", "-N", "8"],
                  ["expand", "--family", "torus2", "--m", "2", "--ell", "1", "-N", "8",
                   "--transform", "ratio"]]}
ASYM = {"kind": "asym", "family": "fishburn", "params": {}, "transform": "one-minus-q",
        "samples": [10, 20], "id": 1,
        "argv": [["asym", "--family", "fishburn", "--samples", "10,20"]]}
VERIFY = {"kind": "verify", "family": "torus2", "varied": "m", "range": [1, 6], "id": 2,
          "argv": [["verify", "--family", "torus2", "--m", "1:6"]]}
VERIFY_T = {"kind": "verify", "family": "torus32t", "varied": "t", "range": [5, 9], "id": 3,
            "argv": [["verify", "--family", "torus32t", "--t", "5:9"]]}


class WrongOutputsFail(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ref = Reference(run.TABLES)
        cls.work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work"))
        cache = ["--cache-dir", str(cls.work)]
        cls.good = {task["id"]: [cli_output(argv + cache) for argv in task["argv"]]
                    for task in (CROSS, ASYM, VERIFY, VERIFY_T)}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def problems(self, task, outputs):
        return check_task(task, outputs, self.ref)

    def test_real_outputs_pass(self):
        for task in (CROSS, ASYM, VERIFY, VERIFY_T):
            self.assertEqual(self.problems(task, self.good[task["id"]]), [], task["argv"])

    def test_crosscheck_mismatch_fails(self):
        bad = {"rc": 2, "stdout": "mismatch at n=3: direct 5, theta-side 6\n", "stderr": "", "error": None}
        self.assertTrue(self.problems(CROSS, [bad, self.good[0][1]]))
        self.assertTrue(self.problems(CROSS, [ok("pass: 8 coefficients agree\n"), self.good[0][1]]))

    def test_expand_wrong_coefficient_fails(self):
        row = [int(x) for x in self.good[0][1]["stdout"].split(", ")]
        row[5] += 1
        wrong = ok(", ".join(map(str, row)) + "\n")
        self.assertTrue(self.problems(CROSS, [self.good[0][0], wrong]))
        short = ok(", ".join(map(str, row[:-1])) + "\n")
        self.assertTrue(self.problems(CROSS, [self.good[0][0], short]))

    def test_exception_and_exit_code_fail(self):
        crashed = {"rc": None, "stdout": "", "stderr": "", "error": "ZeroDivisionError: x"}
        self.assertTrue(self.problems(ASYM, [crashed]))
        self.assertTrue(self.problems(ASYM, [dict(self.good[1][0], rc=1)]))

    def test_asym_wrong_rows_fail(self):
        good = self.good[1][0]["stdout"]
        self.assertTrue(self.problems(ASYM, [ok(good.replace('"20"', '"21"'))]))
        lines = good.splitlines()
        n, digits, _ = lines[2].split(",")
        self.assertTrue(self.problems(ASYM, [ok("\n".join(lines[:2] + [f'{n},{digits},"0.9"']) + "\n")]))
        self.assertTrue(self.problems(ASYM, [ok("\n".join(lines[:2] + [f'{n},"0",""']) + "\n")]))

    def test_verify_wrong_count_fails(self):
        good = self.good[2][0]["stdout"]
        self.assertIn("m=4: 1 1 0 0", good)
        self.assertTrue(self.problems(VERIFY, [ok(good.replace("m=4: 1 1 0 0", "m=4: 1 0 0 0"))]))
        self.assertTrue(self.problems(VERIFY, [ok(good.replace("verdict: all proved-positive",
                                                               "torus2(m=3, ell=1): condition-failed"))]))
        good_t = self.good[3][0]["stdout"]
        self.assertIn("N: 1 2 2 3 3", good_t)
        self.assertTrue(self.problems(VERIFY_T, [ok(good_t.replace("N: 1 2 2 3 3", "N: 1 2 2 3 4"))]))

    def test_wrong_output_counts_as_failed_task(self):
        passes = [{"outputs": [self.good[0], [dict(self.good[1][0], stdout="")]]}]
        failed, messages = run.check_passes([CROSS, ASYM], passes)
        self.assertEqual(failed, 1)
        self.assertTrue(all("task 1" in m for m in messages))


class Generator(unittest.TestCase):
    def test_seeded_and_sized(self):
        for workload in ("crosscheck-nested", "asym-deep", "verify-sweep"):
            a, b = generate(workload, 7), generate(workload, 7)
            self.assertEqual(a, b)
            self.assertNotEqual(a, generate(workload, 8))
            self.assertEqual(len(a), TASKS_PER_RUN)
            for task in a:
                habiro.cli._build_parser().parse_args(task["argv"][0])

    def test_crosscheck_member_orders_rise(self):
        seen = {}
        for task in generate("crosscheck-nested", 3):
            key = task["family"] + repr(task["params"])
            self.assertGreater(task["N"], seen.get(key, -1))
            seen[key] = task["N"]


class TracerRecords(unittest.TestCase):
    def test_spans_counts_and_restore(self):
        original = habiro.cli.cached_expansion
        work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work"))
        tracer = Tracer()
        tracer.install()
        try:
            for i, argv in enumerate(CROSS["argv"]):
                tracer.run_task(i, cli_output, argv + ["--cache-dir", str(work)])
        finally:
            tracer.uninstall()
            shutil.rmtree(work, ignore_errors=True)
        self.assertIs(habiro.cli.cached_expansion, original)
        m = layer_metrics(tracer.summary())
        self.assertEqual((m["families.expand_calls"], m["families.cache_misses"],
                          m["families.cache_hits"]), (1, 1, 1))
        self.assertGreater(m["qseries.kernel_calls"], 0)
        self.assertEqual(m["thetaside.c_terms"], 9)
        self.assertGreater(m["families.max_coeff_bits"], 0)
        shares = sum(m[f"{layer}.share"] for layer in
                     ("cli", "families", "qseries", "thetaside", "exact", "asym", "signcheck"))
        self.assertAlmostEqual(shares, 1.0, places=9)


if __name__ == "__main__":
    unittest.main()
