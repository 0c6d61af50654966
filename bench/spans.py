"""Outside-in span tracing for the benchmark's traced passes.

`Tracer.install()` replaces each function in TRACED with a wrapper that
records one span per call: (name, start, end, parent span index).  Every
cross-module call in `defcert` goes through a module or class attribute
(`flinalg.rref(...)`, `a @ b` on `coeff.Matrix`), and calls inside a
module look their callee up in the module's globals, which are the same
attributes, so the wrappers see nested calls without any edit to `src/`.
The program runs single-threaded, so one stack gives every span's parent.

Spans are kept in memory and written out by `write()` after the pass.
"""

import functools
import importlib
import json
import time

import numpy as np

# Traced functions as `module.attribute path` under `defcert`.
TRACED = (
    "cli.run_command",
    "deform.scenario_report",
    "deform.hensel_chain",
    "deform.mixed_representation",
    "deform.tangent_class_is_nonzero",
    "deform.obstruction_sweep",
    "deform.obstruction_check",
    "deform.verify_quiver_lift",
    "deform.first_order_class",
    "groups.build_group",
    "groups.GroupRep.from_generators",
    "groups.GroupRep.check_table",
    "groups.h1_cocycles",
    "groups.conjugation_module",
    "groups.induce",
    "fdmod.hom_space",
    "fdmod.projective_cover",
    "fdmod.syzygy",
    "fdmod.ext_dim",
    "fdmod.ext1_by_extensions",
    "fdmod.stable_hom_dim",
    "fdmod.is_isomorphic",
    "fdmod.module_structure",
    "quiver.complete",
    "quiver.CompletedSystem.reduce_terms",
    "flinalg.rref",
    "flinalg.nullspace",
    "flinalg.solve",
    "flinalg.rank",
    "flinalg.matmul_mod",
    "flinalg.inv",
    "coeff.Matrix.__matmul__",
    "coeff.Matrix.__pow__",
    "coeff.convolve_levels",
)
# Span names for the dunder methods.
RENAMED = {
    "coeff.Matrix.__matmul__": "coeff.Matrix.matmul",
    "coeff.Matrix.__pow__": "coeff.Matrix.pow",
}
FUNCTIONS = tuple(RENAMED.get(path, path) for path in TRACED)


def _table_pairs(args, result):
    return args[0].table.size ** 2


def _rref_cells(args, result):
    rows, cols = np.shape(args[0])
    return rows * cols


def _one(args, result):
    return 1


def _rules(args, result):
    return len(result.rules)


# Deterministic work counters: traced function -> (counter, amount per
# call, from the call's arguments or return value).  `quiver.rules` only
# sees completions that return, so a diverging completion adds nothing.
COUNTED = {
    "groups.GroupRep.check_table": ("groups.table_pairs", _table_pairs),
    "flinalg.rref": ("flinalg.rref.cells", _rref_cells),
    "deform.obstruction_check": ("deform.obstruction_check.calls", _one),
    "quiver.complete": ("quiver.rules", _rules),
}
COUNTERS = tuple(counter for counter, _ in COUNTED.values())


def resolve(path):
    """The module or class that holds a traced function, and its name."""
    module, *outer, attr = path.split(".")
    owner = importlib.import_module(f"defcert.{module}")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs span-recording wrappers and undoes them on `uninstall()`."""

    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._saved = []

    def install(self):
        for path in TRACED:
            owner, attr = resolve(path)
            raw = vars(owner)[attr]
            name = RENAMED.get(path, path)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counters
        counter, amount = COUNTED.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counts[counter] += amount(args, result)
            return result

        return wrapper

    def summary(self):
        """Per function: call count and self time, from the spans.

        Self time is a span's duration minus the time its child spans
        cover; calls run one after another, so children never overlap.
        """
        calls = dict.fromkeys(FUNCTIONS, 0)
        self_s = dict.fromkeys(FUNCTIONS, 0.0)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return {"calls": calls, "self_s": self_s,
                "counters": dict(self.counters)}

    def write(self, path):
        """Write the spans as JSON lines: index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, name, start, end]) + "\n")
