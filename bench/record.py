"""Record the known answers in answers.json.

    python3 bench/record.py

Runs every workload once per recorded seed, each in a fresh worker
process, and stores what every operation returned: the exit code, status
and seedless hash of each scenario report, the report's exact SHA-256 per
seed, each Ext battery dimension, each converged completion's rule count
and basis dimensions, and the divergent completion's CapExceededError.

The answers were recorded once, at the commit that defined this
benchmark; they are the reference later changes are checked against, so
re-recording them to make a change pass defeats the benchmark.
"""

import json
import sys

import run

RECORDED_SEEDS = tuple(range(10))


def record():
    answers = {"report_sha256": {}, "ops": {}}
    runs = []
    for seed in RECORDED_SEEDS:
        hashes = answers["report_sha256"].setdefault(str(seed), {})
        for workload in run.WORKLOADS:
            ops = run.workload_ops(workload, seed)
            result = run.spawn(ops, False, run.now() + 3600)
            runs.append((ops, result["outcomes"], seed))
            for op in ops:
                got = dict(result["outcomes"][op["id"]])
                if "error" in got:
                    raise SystemExit(f"{op['id']}: {got['error']}")
                if op["kind"] == "cli":
                    if got["exit"] != 0 or got["status"] != "VERIFIED":
                        raise SystemExit(f"{op['id']}: not verified")
                    hashes[op["id"]] = got.pop("sha256")
                known = answers["ops"].setdefault(op["id"], got)
                if known != got:
                    raise SystemExit(f"{op['id']}: answer depends on seed")
    for ops, outcomes, seed in runs:
        if run.failures(ops, outcomes, answers, seed):
            raise SystemExit("recorded answers do not check out")
    return answers


def main():
    answers = record()
    with open(run.ANSWERS, "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
