"""Checks on the benchmark itself.

    python3 bench/selftest.py

Runs each workload once untraced and twice traced (seed 0, a recorded
seed), each pass in a fresh worker process, and checks that:

* every operation matches its known answer, and altering any recorded
  answer makes that operation fail;
* a mismatch reaches the result line and the exit code of run.py;
* the four work counters repeat exactly across the two traced passes;
* report bytes are identical with and without the wrappers installed;
* the layers a workload should leave idle stay idle;
* the speed meter's scaling leaves a reference-speed interval as it is,
  less the meter's own time, and halves it when the chunk ran at half
  speed.

Takes about a minute.
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

import meter
import run
import spans

SEED = 0
_PASSES = {}


def passes(workload):
    """(ops, untraced pass, [two traced passes]) for one workload."""
    if workload not in _PASSES:
        ops = run.workload_ops(workload, SEED)
        deadline = run.now() + 600
        _PASSES[workload] = (
            ops,
            run.spawn(ops, False, deadline),
            [run.spawn(ops, True, deadline) for _ in range(2)],
        )
    return _PASSES[workload]


def _altered(value):
    if isinstance(value, bool) or value is None:
        return "altered"
    if isinstance(value, int):
        return value + 1
    if isinstance(value, dict):
        return {**value, "altered": 1}
    return value + "0"


class KnownAnswers(unittest.TestCase):

    def setUp(self):
        self.answers = run.load_answers()

    def test_recorded_seeds(self):
        self.assertGreaterEqual(len(self.answers["report_sha256"]), 2)
        self.assertIn(str(SEED), self.answers["report_sha256"])

    def test_every_operation_matches(self):
        for workload in run.WORKLOADS:
            ops, untraced, traced = passes(workload)
            for result in [untraced, *traced]:
                self.assertEqual(run.failures(
                    ops, result["outcomes"], self.answers, SEED), [])

    def test_altering_any_answer_trips_its_check(self):
        for workload in run.WORKLOADS:
            ops, untraced, _ = passes(workload)
            for op in ops:
                for key, value in self.answers["ops"][op["id"]].items():
                    answers = copy.deepcopy(self.answers)
                    answers["ops"][op["id"]][key] = _altered(value)
                    self.assertIn(op["id"], run.failures(
                        ops, untraced["outcomes"], answers, SEED),
                        (op["id"], key))
                if op["kind"] == "cli":
                    answers = copy.deepcopy(self.answers)
                    hashes = answers["report_sha256"][str(SEED)]
                    hashes[op["id"]] = _altered(hashes[op["id"]])
                    self.assertEqual(run.failures(
                        ops, untraced["outcomes"], answers, SEED), [op["id"]])

    def test_unrecorded_seed_keeps_seedless_checks(self):
        ops, untraced, _ = passes("group-p7")
        unrecorded = 10 ** 9
        self.assertNotIn(str(unrecorded), self.answers["report_sha256"])
        self.assertEqual(run.failures(
            ops, untraced["outcomes"], self.answers, unrecorded), [])
        answers = copy.deepcopy(self.answers)
        answers["ops"]["group-p7"]["seedless_sha256"] = "0"
        self.assertEqual(run.failures(
            ops, untraced["outcomes"], answers, unrecorded), ["group-p7"])

    def test_ext_routes_must_agree(self):
        ops, untraced, _ = passes("families")
        outcomes = copy.deepcopy(untraced["outcomes"])
        answers = copy.deepcopy(self.answers)
        op_id = "ext1:I-d2:T:T"
        outcomes[op_id]["dim"] += 1
        answers["ops"][op_id]["dim"] += 1
        self.assertEqual(run.failures(ops, outcomes, answers, SEED),
                         ["ext1_ext:I-d2:T:T"])

    def test_erroring_operation_fails(self):
        ops, untraced, _ = passes("completion")
        outcomes = copy.deepcopy(untraced["outcomes"])
        outcomes["complete:I-d2"]["error"] = "RuntimeError: injected"
        self.assertEqual(run.failures(ops, outcomes, self.answers, SEED),
                         ["complete:I-d2"])

    def test_mismatch_fails_the_run(self):
        answers = run.load_answers()
        answers["ops"]["family-I-d2"]["status"] = "DISCREPANCY"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "answers.json"
            path.write_text(json.dumps(answers), encoding="utf-8")
            saved = run.ANSWERS
            run.ANSWERS = path
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run.main(["--workload", "families", "--seed", "0",
                                     "--seconds", "0.1", "--trace", "0"])
            finally:
                run.ANSWERS = saved
        line = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(line["correct"])
        passes_run = line["attempted"] // len(run.workload_ops("families", 0))
        self.assertEqual(line["failed"], passes_run)  # one op, every pass
        self.assertLess(line["metrics"]["verified_ratio"]["value"], 1)


class Tracing(unittest.TestCase):

    def test_counters_repeat_exactly(self):
        for workload in run.WORKLOADS:
            _, _, (first, second) = passes(workload)
            self.assertEqual(first["trace"]["counters"],
                             second["trace"]["counters"], workload)
            self.assertEqual(first["trace"]["calls"],
                             second["trace"]["calls"], workload)

    def test_reports_identical_with_and_without_wrappers(self):
        for workload in run.WORKLOADS:
            ops, untraced, traced = passes(workload)
            for op in ops:
                if op["kind"] == "cli":
                    for result in traced:
                        self.assertEqual(
                            result["outcomes"][op["id"]]["sha256"],
                            untraced["outcomes"][op["id"]]["sha256"])

    def test_idle_layers_stay_idle(self):
        groups = [f for f in spans.FUNCTIONS if f.startswith("groups.")]
        for workload in ("families", "obstruction", "completion"):
            _, _, traced = passes(workload)
            for result in traced:
                for name in groups:
                    self.assertEqual(result["trace"]["calls"][name], 0)
                    self.assertEqual(result["trace"]["self_s"][name], 0)
        _, _, traced = passes("group-p7")
        for result in traced:
            self.assertEqual(result["trace"]["calls"]["quiver.complete"], 0)
            self.assertGreater(
                result["trace"]["counters"]["groups.table_pairs"], 0)

    def test_install_wraps_and_uninstall_restores_every_function(self):
        sys.path.insert(0, str(run.ROOT / "src"))

        def current():
            return [vars(owner)[attr] for owner, attr in
                    map(spans.resolve, spans.TRACED)]

        before = current()
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertTrue(all(a is not b
                                for a, b in zip(current(), before)))
        finally:
            tracer.uninstall()
        self.assertTrue(all(a is b for a, b in zip(current(), before)))

class SpeedMeter(unittest.TestCase):

    def test_scaled(self):
        ref = meter.REFERENCE_CHUNK_S
        quiet = [[t / 10, 2 * ref, ref] for t in range(10)]
        self.assertAlmostEqual(meter.scaled(quiet, 0.0, 1.0), 1.0 - 20 * ref)
        slow = [[t, 2 * tick, 2 * r] for t, tick, r in quiet]
        self.assertAlmostEqual(meter.scaled(slow, 0.0, 1.0),
                               (1.0 - 40 * ref) / 2)
        # an interval with no tick inside uses the nearest one
        self.assertAlmostEqual(meter.scaled(slow, 1.5, 1.6), 0.1 / 2)


if __name__ == "__main__":
    unittest.main()
