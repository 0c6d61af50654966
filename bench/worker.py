"""One timed pass over a workload's operations, in a fresh process.

run.py starts this script once per pass and writes a JSON job to its
standard input: {"ops": [...], "trace": bool, "spans_path": str|null}.
The script imports defcert from the checkout's `src/`, completes the
built-in presentations (the set-up), runs the operations one after
another and prints one JSON line with its timestamps, peak memory, the
observed result of every operation, the speed meter's samples and, when
traced, the span summary.

The speed meter (`meter.py`) runs from the start of `main()`, once the
interpreter is up and numpy imported, to the end of the timed phase; its
start time ("metered") is where set-up is measured from.  Timestamps come
from CLOCK_MONOTONIC, which is shared by every process on the machine, so
run.py can subtract its own spawn time from them.
"""

import hashlib
import json
import os
import resource
import sys
from pathlib import Path

from meter import Meter, now

ROOT = Path(__file__).resolve().parent.parent


def setup():
    """Import defcert and complete the built-in presentations."""
    sys.path.insert(0, str(ROOT / "src"))
    from defcert import cli, deform, fdmod, quiver  # noqa: F401

    for family, d in deform.FAMILY_CASES:
        deform.completed_system(family, d)


def seedless_sha256(report):
    """Hash of a report with every premise's `seed` field blanked.

    The seed reaches a report only through that field, so this hash is
    the same for every seed and checks runs on seeds with no recorded
    report hash.
    """
    for premise in report.get("premises", ()):
        if "seed" in premise.get("computed", {}):
            premise["computed"]["seed"] = None
    text = json.dumps(report, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Executor:
    """Runs operations; holds the modules an Ext battery pass reuses."""

    def __init__(self):
        from defcert import cli, deform, fdmod, quiver
        self.cli, self.deform, self.fdmod, self.quiver = (
            cli, deform, fdmod, quiver)
        self._modules = {}

    def module(self, family, d, name):
        key = (family, d)
        if key not in self._modules:
            system = self.deform.completed_system(family, d)
            alg = self.fdmod.quiver_algebra(system)
            mods = {"T": self.deform.base_module(family, system)}
            for v in alg.grading_labels:
                mods[f"S{v}"] = alg.simple_module(v)
            self._modules[key] = mods
        return self._modules[key][name]

    def run(self, op):
        """The raw outcome of one operation; run.py checks it later."""
        kind = op["kind"]
        if kind == "cli":
            return {"exit": self.cli.run_command(op["argv"])}
        if kind == "ext":
            M = self.module(op["family"], op["d"], op["M"])
            N = self.module(op["family"], op["d"], op["N"])
            fd, call = self.fdmod, op["call"]
            if call == "ext1":
                dim = fd.ext_dim(M, N, 1).dim
            elif call == "ext1_ext":
                dim = fd.ext1_by_extensions(M, N).dim
            elif call == "ext2":
                dim = fd.ext_dim(M, N, 2).dim
            else:
                dim = fd.stable_hom_dim(M, N)
            return {"dim": int(dim)}
        if kind == "complete":
            q = self.quiver
            system = q.complete(q.builtin_family(op["family"], op["d"]))
            return {"rules": len(system.rules),
                    "dims_by_source": {str(v): n for v, n in
                                       system.dims_by_source().items()}}
        if kind == "diverge":
            q = self.quiver
            try:
                q.complete(q.family3_printed_spec(), cap=op["cap"])
            except q.CapExceededError:
                return {"raised": "CapExceededError"}
            return {"raised": None}
        raise ValueError(f"unknown operation kind {kind!r}")


def finish(op, outcome):
    """Add what the report file says to a CLI operation's outcome."""
    if op["kind"] != "cli" or "exit" not in outcome:
        return outcome
    try:
        data = Path(op["out"]).read_bytes()
        report = json.loads(data)
    except (OSError, ValueError) as err:
        outcome["error"] = f"no readable report: {err}"
        return outcome
    outcome["status"] = report.get("status")
    outcome["sha256"] = hashlib.sha256(data).hexdigest()
    outcome["seedless_sha256"] = seedless_sha256(report)
    return outcome


def execute(ops, tracer=None):
    """Run ops in order; returns (first, end, outcomes by op id)."""
    executor = Executor()
    for op in ops:
        if op["kind"] == "cli":
            Path(op["out"]).parent.mkdir(parents=True, exist_ok=True)
            Path(op["out"]).unlink(missing_ok=True)
    if tracer is not None:
        tracer.install()
    raw = []
    first = now()
    for op in ops:
        try:
            raw.append(executor.run(op))
        except Exception as err:  # an erroring operation counts as failed
            raw.append({"error": f"{type(err).__name__}: {err}"})
    end = now()
    if tracer is not None:
        tracer.uninstall()
    return first, end, {op["id"]: finish(op, out) for op, out in zip(ops, raw)}


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main():
    speed = Meter()
    speed.start()
    job = json.loads(sys.stdin.read())
    setup()
    speed.pace()
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
    first, end, outcomes = execute(job["ops"], tracer)
    speed.stop()
    result = {
        "metered": speed.started,
        "first": first,
        "end": end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outcomes": outcomes,
        "samples": speed.samples,
        "environment": environment(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
