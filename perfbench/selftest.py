"""Tests of the benchmark's own checks and tracing.

Run from the root of a checkout:  python3 perfbench/selftest.py

Each test runs small real jobs through the benchmark's runner, then makes
sure that a deliberately perturbed result is judged wrong and counted as
failed.
"""

import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

LIMIT_JOB = workloads._limit_job("delannoy", "delannoy", 60, "ln2/2", recognize="ln2")
GUESS_JOB = workloads._guess_job("franel5", "franel", 3, d=5)
CONJECTURE_JOB = {
    "id": "franel-zeta2",
    "argv": ["conjecture", "--name", "franel-zeta2", "--d-range", "3..4",
             "--digits", "50", "--json"],
    "expect": {"kind": "conjecture", "name": "franel-zeta2", "lo": 3, "hi": 4,
               "digits": 50},
}


def _run(job, traced=False, seconds=120):
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        return run.run_job(job, Path(tmp), traced, time.monotonic() + seconds)


def _perturb(stdout, edit):
    doc = json.loads(stdout)
    edit(doc["results"])
    return json.dumps(doc)


def _bump_digit(text, position):
    digit = str((int(text[position]) + 1) % 10)
    return text[:position] + digit + text[position + 1:]


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.outputs = {job["id"]: _run(job) for job in (LIMIT_JOB, GUESS_JOB, CONJECTURE_JOB)}

    def assert_judged(self, job, edit):
        result = self.outputs[job["id"]]
        self.assertIsNone(result["failure"])
        self.assertIsNone(workloads.judge(job, 0, result["stdout"]))
        self.assertIsNotNone(workloads.judge(job, 0, _perturb(result["stdout"], edit)))

    def test_limit_digit(self):
        self.assert_judged(LIMIT_JOB, lambda r: r.update(
            limit_decimal=_bump_digit(r["limit_decimal"], 40)))

    def test_limit_recognized_form(self):
        self.assert_judged(LIMIT_JOB, lambda r: r["recognized_terms"].update(ln2="1/3"))

    def test_limit_certificate_below_request(self):
        self.assert_judged(LIMIT_JOB, lambda r: r.update(certified_digits="59"))

    def test_guess_coefficient(self):
        def edit(r):
            lines = r["recurrence"].splitlines()
            lines[2] += " + 1"
            r["recurrence"] = "\n".join(lines) + "\n"
        self.assert_judged(GUESS_JOB, edit)

    def test_guess_order(self):
        def edit(r):
            lines = r["recurrence"].splitlines()
            r["recurrence"] = "\n".join(["order: 4"] + lines[1:] + ["c_4: 0"]) + "\n"
        self.assert_judged(GUESS_JOB, edit)

    def test_conjecture_recognized(self):
        self.assert_judged(CONJECTURE_JOB, lambda r: r["d=4"].update(recognized="1/4*zeta2"))

    def test_conjecture_limit(self):
        self.assert_judged(CONJECTURE_JOB, lambda r: r["d=3"].update(
            limit=_bump_digit(r["d=3"]["limit"], 30)))

    def test_exit_code_and_timeout(self):
        stdout = self.outputs[LIMIT_JOB["id"]]["stdout"]
        self.assertIsNotNone(workloads.judge(LIMIT_JOB, 1, stdout))
        self.assertIsNotNone(workloads.judge(LIMIT_JOB, None, stdout))

    def test_job_past_deadline_is_failed(self):
        # about 5 s of work against the shortest allowed wait, 1 s
        result = _run(workloads._guess_job("franel10", "franel", 5, d=10), seconds=0)
        self.assertIsNone(result["returncode"])
        self.assertEqual(result["failure"], "timed out")

    def test_wrong_result_counts_as_failed(self):
        # the limit of the delannoy quotient is ln2/2, not pi
        job = dict(LIMIT_JOB, expect=dict(LIMIT_JOB["expect"], reference="pi",
                                          terms={"ln2": "1/2"}))
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            passes = run.run_passes([job], 0, False, Path(tmp), time.monotonic() + 120)
        results = [r for p in passes for r in p["jobs"]]
        self.assertEqual(len(results), run.MIN_PASSES)
        self.assertTrue(all(r["failure"] for r in results))


class TraceTest(unittest.TestCase):
    def test_traced_limit_job(self):
        result = _run(LIMIT_JOB, traced=True)
        self.assertIsNone(result["failure"])
        record = result["record"]
        self.assertIn("seqlim.limits.eval_constant", record["bindings"])
        self.assertIn("seqlim.cli.recognize_constant", record["bindings"])
        metrics = layers.layer_metrics([record])
        self.assertEqual(metrics["limits.apery_limit.calls"], 1)
        self.assertEqual(metrics["recognize.recognize_constant.hits"], 1)
        self.assertGreater(metrics["recurrence.SolutionTable.evaluate.terms"], 0)
        self.assertGreater(metrics[layers.POLY_CALLS], 0)
        self.assertEqual(metrics["recurrence.guess_recurrence.calls"], 0)

    def test_self_times(self):
        spans = [(1, 0, "inner", 1.0, 3.0), (2, 0, "inner", 4.0, 5.0),
                 (0, None, "outer", 0.0, 10.0)]
        self.assertEqual(layers.self_times(spans), {"outer": 7.0, "inner": 3.0})


if __name__ == "__main__":
    unittest.main()
