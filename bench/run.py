"""defcert benchmark: time to verdict on four workloads, checked answers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client: this process runs passes one after another, each
pass in a fresh `worker.py` process that sets up, runs the workload's
fixed list of operations and exits, until S seconds have gone and, with
--trace 0, at least MIN_PASSES passes are done.  Every operation's
outcome is checked against `answers.json`.  Times are wall times scaled
to a reference machine speed by the speed meter in `meter.py`, which
samples the host's speed while the program runs; the raw wall times go
to the result file in `.bench_out/`.

With --trace 0 it reports the end-to-end metrics (medians over passes);
no wrappers are installed.  With --trace 1 it alternates untraced and
traced passes and reports, per traced function, self time and calls, the
work counters and the tracing overhead.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  The line before
it is the environment stamp.  Exit code 0 means every operation matched
its known answer, 1 that some did not, 2 that the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import spans
from meter import now, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
ANSWERS = BENCH / "answers.json"

RUN_LIMIT_S = 170.0  # a run must end within 180 s
# An untraced run makes at least MIN_PASSES passes, which matters for the
# workload with long passes (group-p7, about 10 s).
MIN_PASSES = 2
# Set-up is timed on SETUP_PROBES set-up-only workers.
SETUP_PROBES = 10

FAMILY_CASES = (("I", 2), ("I", 3), ("II", 2), ("II", 3), ("III", 3))
BATTERY_MODULES = ("T", "S0", "S1", "S2")  # T and the three simples
EXT_CALLS = ("ext1", "ext1_ext", "ext2", "stable")
DIVERGENT_CAP = 16
OBSTRUCTION_SAMPLES = 2000

WORKLOADS = ("group-p7", "families", "obstruction", "completion")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# workloads: the seed makes the inputs, the program sees only those


def _cli_op(scenario, argv, seed):
    out = str(OUT / "reports" / f"{scenario}.json")
    return {
        "id": scenario, "kind": "cli", "out": out,
        "argv": argv + ["--seed", str(seed), "--format", "json",
                        "--out", out],
    }


def workload_ops(workload, seed):
    """The fixed operation list of one workload for one seed.

    The seed feeds the group scenario's obstruction sweep and the
    obstruction draws; for the catalogue-only workloads it fixes the
    order in which the operations run.
    """
    rng = random.Random(seed)
    if workload == "group-p7":
        return [_cli_op("group-p7", [
            "group", "verify", "--p", "7", "--n", "2", "--N", "3",
            "--samples", "100"], seed)]
    if workload == "obstruction":
        return [
            _cli_op(f"obstruction-p{p}", [
                "obstruction", "--p", str(p),
                "--samples", str(OBSTRUCTION_SAMPLES)], seed)
            for p in (3, 5, 7)
        ]
    if workload == "families":
        ops = [
            _cli_op(f"family-{f}-d{d}", [
                "families", "verify", "--family", f, "--d", str(d)], seed)
            for f, d in FAMILY_CASES
        ]
        pairs = [(f, d, M, N) for f, d in FAMILY_CASES
                 for M in BATTERY_MODULES for N in BATTERY_MODULES]
        rng.shuffle(pairs)
        for f, d, M, N in pairs:
            for call in EXT_CALLS:
                ops.append({"id": f"{call}:{f}-d{d}:{M}:{N}", "kind": "ext",
                            "call": call, "family": f, "d": d,
                            "M": M, "N": N})
        return ops
    if workload == "completion":
        ops = [{"id": f"complete:{f}-d{d}", "kind": "complete",
                "family": f, "d": d} for f, d in FAMILY_CASES]
        ops.append({"id": f"diverge:III-printed:cap{DIVERGENT_CAP}",
                    "kind": "diverge", "cap": DIVERGENT_CAP})
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# known answers


def load_answers():
    with open(ANSWERS, encoding="utf-8") as fh:
        return json.load(fh)


def failures(ops, outcomes, answers, seed):
    """Ids of the operations whose outcome differs from its known answer.

    Every recorded field must match; an erroring operation fails.  The
    exact report hash is checked only for seeds it was recorded for; the
    seedless report hash is checked for every seed.  Each Ext^1 by
    extensions must also equal the same pair's Ext^1 by resolution.
    """
    recorded = answers["report_sha256"].get(str(seed), {})
    bad = []
    for op in ops:
        got = outcomes.get(op["id"], {})
        want = answers["ops"].get(op["id"])
        ok = (want is not None and "error" not in got
              and all(got.get(k) == v for k, v in want.items()))
        if op["id"] in recorded:
            ok = ok and got.get("sha256") == recorded[op["id"]]
        if op.get("call") == "ext1_ext":
            route1 = outcomes.get(op["id"].replace("ext1_ext:", "ext1:"), {})
            ok = ok and got.get("dim") == route1.get("dim")
        if not ok:
            bad.append(op["id"])
    return bad


# ---------------------------------------------------------------------------
# passes


def spawn(ops, trace, deadline, spans_path=None):
    """Run one pass in a fresh worker process and time it.

    Set-up runs from the start of the worker's speed meter, once the
    interpreter is up and numpy imported, to the first timed operation;
    `raw_start_s` is the time before it, from spawning the worker.
    `setup_s` and `wall_s` are scaled to reference speed by the worker's
    speed meter; `raw_setup_s` and `raw_wall_s` are the wall times as
    they passed.
    """
    job = json.dumps({"ops": ops, "trace": trace, "spans_path": spans_path})
    start = now()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)], cwd=ROOT, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        out, _ = proc.communicate(job, timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        raise BenchError("a pass ran past the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    samples = result.pop("samples")
    if not samples:
        raise BenchError("the speed meter took no sample")
    result["raw_start_s"] = result["metered"] - start
    result["raw_setup_s"] = result["first"] - result["metered"]
    result["raw_wall_s"] = result["end"] - result["first"]
    result["setup_s"] = scaled(samples, result["metered"], result["first"])
    result["wall_s"] = scaled(samples, result["first"], result["end"])
    return result


def environment(first_pass):
    """Where the numbers were measured; printed beside every result."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        **first_pass["environment"],
    }


def measure(workload, seed, seconds, trace):
    """Run passes for `seconds`; returns the result line and the details."""
    ops = workload_ops(workload, seed)
    answers = load_answers()
    OUT.mkdir(exist_ok=True)
    spans_path = str(OUT / f"spans-{workload}.jsonl")
    begin = now()
    deadline = begin + RUN_LIMIT_S
    untraced, traced, bad = [], [], []
    min_untraced = 1 if trace else MIN_PASSES
    while (now() - begin < seconds or len(untraced) < min_untraced
           or (trace and not traced)):
        if trace and len(traced) < len(untraced):
            traced.append(spawn(ops, True, deadline, spans_path))
            result = traced[-1]
        else:
            untraced.append(spawn(ops, False, deadline))
            result = untraced[-1]
        bad += failures(ops, result["outcomes"], answers, seed)
    attempted = len(ops) * (len(untraced) + len(traced))

    wall = statistics.median(r["wall_s"] for r in untraced)
    if trace:
        metrics = layer_metrics(traced)
        metrics["trace_overhead_ratio"] = {
            "value": statistics.median(r["wall_s"] for r in traced) / wall,
            "unit": "ratio"}
    else:
        probes = [spawn([], False, deadline) for _ in range(SETUP_PROBES)]
        metrics = {
            "setup_s": {"value": statistics.median(
                r["setup_s"] for r in probes), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(
                    r["maxrss_kb"] / 1024 for r in untraced),
                "unit": "MB"},
            "verified_ratio": {
                "value": (attempted - len(bad)) / attempted,
                "unit": "ratio"},
        }
    line = {"correct": not bad, "attempted": attempted,
            "failed": len(bad), "metrics": metrics}
    details = {
        "workload": workload, "seed": seed, "trace": trace,
        "environment": environment(untraced[0]),
        "failed_ops": sorted(set(bad)),
        "untraced_wall_s": [r["wall_s"] for r in untraced],
        "untraced_raw_wall_s": [r["raw_wall_s"] for r in untraced],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "traced_raw_wall_s": [r["raw_wall_s"] for r in traced],
    }
    if not trace:
        details["setup_s"] = [r["setup_s"] for r in probes]
        details["raw_setup_s"] = [r["raw_setup_s"] for r in probes]
        details["raw_start_s"] = [r["raw_start_s"] for r in probes]
    return line, details


def layer_metrics(traced):
    """Medians over traced passes of every per-layer metric.

    Self times are scaled to reference speed by their pass's factor,
    which also takes out the speed meter's share of them.
    """
    metrics = {}
    for name in spans.FUNCTIONS:
        metrics[f"{name}.self_s"] = {"value": statistics.median(
            r["trace"]["self_s"][name] * r["wall_s"] / r["raw_wall_s"]
            for r in traced), "unit": "s"}
        metrics[f"{name}.calls"] = {"value": statistics.median(
            r["trace"]["calls"][name] for r in traced), "unit": "count"}
    for name in spans.COUNTERS:
        metrics[name] = {"value": statistics.median(
            r["trace"]["counters"][name] for r in traced), "unit": "count"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "defcert" / "__init__.py").is_file():
        sys.stderr.write(f"no defcert sources under {ROOT / 'src'}\n")
        return 2
    try:
        line, details = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except BenchError as err:
        sys.stderr.write(f"benchmark failed: {err}\n")
        return 2
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump({**details, **line}, fh, indent=2)
    if details["failed_ops"]:
        sys.stderr.write("operations that differ from their known answer: "
                         + ", ".join(details["failed_ops"]) + "\n")
    print(json.dumps({"environment": details["environment"]}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
