"""Command-line front end for the verification scenarios.

Exit codes separate four situations: 0 means every requested check
verified, 1 means some check ran and failed (a DISCREPANCY), 2 means the
request itself was malformed (unknown flags, bad fixture grammar,
parameters outside the built-in catalogue or too large for exact int64
arithmetic, a file that cannot be read or written), and 3 means an
internal invariant broke (a RuntimeError nothing else caught): the
program is at fault, not the mathematics or the request.
"""

import argparse
import functools
import json
import sys

from . import deform, fdmod
from .fdmod import RelationViolated

FORMATS = ("json", "text")


# ---------------------------------------------------------------------------
# rendering


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"


def emit_report(report, format="text") -> str:
    """One report as a self-contained string in the requested format.

    Both formats render the report's JSON dictionary.
    """
    data = report.to_json_dict()
    if format == "json":
        return _json(data)
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    lines = [f"scenario {data['scenario']}: {data['status']}"]
    for pr in data["premises"]:
        lines.append(f"  {pr['verdict']} {pr['name']}")
        lines.append(f"    anchor: {pr['anchor']}")
        if pr["computed"]:
            lines.append("    computed: " + json.dumps(
                pr["computed"], sort_keys=True, ensure_ascii=False,
            ))
    if data["conclusion"]:
        lines.append(f"  CONCLUSION ({data['conclusion_basis']}): "
                     f"{data['conclusion']}")
    return "\n".join(lines) + "\n"


def emit_reports(reports, format="text") -> str:
    """A bundle of reports, ordered by scenario id before rendering."""
    reports = sorted(reports, key=lambda r: r.scenario_id)
    if format == "json":
        return _json({"schema": 1,
                      "reports": [r.to_json_dict() for r in reports]})
    return "".join(emit_report(r, format) for r in reports)


def _write(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_and_exit(args, reports):
    if len(reports) == 1:
        _write(args, emit_report(reports[0], args.format))
    else:
        _write(args, emit_reports(reports, args.format))
    return 0 if all(r.status == "VERIFIED" for r in reports) else 1


# ---------------------------------------------------------------------------
# subcommand bodies


def _family_cases(args):
    cases = [
        (fam, d) for fam, d in deform.FAMILY_CASES
        if (args.family is None or fam == args.family)
        and (args.d is None or d == args.d)
    ]
    if not cases:
        raise ValueError(
            f"no built-in case matches family={args.family} d={args.d}"
        )
    return cases


def _prime_list(args):
    return deform.GROUP_PRIMES if args.p is None else (args.p,)


def _cmd_scenarios(args):
    """Build every scenario of args.kinds before running any, then emit."""
    scenarios = []
    for kind in args.kinds:
        if kind == "family":
            scenarios += [
                deform.Scenario(kind, family=fam, d=d, seed=args.seed)
                for fam, d in _family_cases(args)]
            continue
        shape = ({"a_eps": args.a_eps, "n": args.n, "N": args.N}
                 if kind == "group" else {})
        scenarios += [deform.Scenario(kind, p=p, samples=args.samples,
                                      seed=args.seed, **shape)
                      for p in _prime_list(args)]
    return _emit_and_exit(args, [deform.scenario_report(s) for s in scenarios])


def _read_fixture(path, family, d):
    """The module a fixture describes and the built-in case it lives over.

    family and d are the case the request names, None where unset; the
    fixture's algebra: line fills in what is unset and must otherwise name
    the same case.  The case is checked against the catalogue first; a
    second algebra: line is refused.  Returns (module, family, d).
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    named = (None, None)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line.lower().startswith("algebra:"):
            if named != (None, None):
                raise ValueError(f"line {lineno}: second algebra: line")
            tokens = line.split(":", 1)[1].split()
            if len(tokens) != 2:
                raise ValueError("algebra: line needs a family and a "
                                 "parameter, for example 'algebra: II 2'")
            named = tokens[0], int(tokens[1])
    case = tuple(n if f is None else f for f, n in zip((family, d), named))
    if None in case:
        raise ValueError("fixture does not name its algebra; "
                         "pass --family and --d")
    algebra = fdmod.quiver_algebra(_builtin_case(*case))
    if named not in ((None, None), case):
        raise ValueError(f"fixture names algebra {named[0]} {named[1]}, "
                         f"not family {case[0]} d={case[1]}")
    try:
        return fdmod.parse_module_fixture(text, algebra), *case
    except RelationViolated:
        raise
    except ValueError as err:
        raise ValueError(f"fixture parse error: {err}") from err


def _cmd_module_check(args):
    module, family, d = _read_fixture(args.fixture, args.family, args.d)
    lines = [
        f"module fixture: {args.fixture}",
        f"algebra: family {family}, parameter {d}",
        f"dim: {module.dim}",
    ]
    dv = module.dimension_vector()
    counts = {v: dv.get(v, 0) for v in module.algebra.grading_labels}
    lines.append("dimension vector: " + ", ".join(
        f"{v}:{n}" for v, n in counts.items()))
    lines.append("status: valid")
    payload = "\n".join(lines) + "\n"
    if args.format == "json":
        payload = _json({
            "schema": 1,
            "fixture": args.fixture,
            "algebra": {"family": family, "d": d},
            "dim": module.dim,
            "dimension_vector": {str(v): n for v, n in counts.items()},
            "status": "valid",
        })
    _write(args, payload)
    return 0


def _builtin_case(family, d):
    """The completed system of (family, d), checked against the catalogue
    before anything is completed."""
    if (family, d) not in deform.FAMILY_CASES:
        raise ValueError(f"no built-in case family {family} d={d}")
    return deform.completed_system(family, d)


def _cmd_ext(args):
    system = _builtin_case(args.family, args.d)
    T = deform.base_module(args.family, system)
    M, N = (T if path is None else _read_fixture(path, args.family, args.d)[0]
            for path in (args.source, args.target))
    premise = deform.ext_routes_premise(M, N, args.source or "T",
                                        args.target or "T")
    report = deform.report(f"ext-{args.family}-d{args.d}", [premise], "")
    return _emit_and_exit(args, [report])


def _cmd_lift_verify(args):
    system = _builtin_case(args.family, args.d)
    premises = deform.lift_premises(
        deform.builtin_lift(args.family, args.d, system))
    report = deform.report(f"lift-{args.family}-d{args.d}", premises, "")
    return _emit_and_exit(args, [report])


# ---------------------------------------------------------------------------
# argument plumbing


def _add_output_flags(p):
    p.add_argument("--format", choices=FORMATS, default="text")
    p.add_argument("--out", default=None, metavar="PATH")


def _add_family_flags(p, family=None, d=None):
    p.add_argument("--family", choices=("I", "II", "III"), default=family)
    p.add_argument("--d", type=int, default=d)


def _add_group_flags(p):
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--a-eps", dest="a_eps", type=int, default=0)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--N", type=int, default=3)


def _add_sampling_flags(p):
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="defcert",
        description="verify deformation-ring certificates",
    )
    sub = top.add_subparsers(dest="command", required=True)

    families = sub.add_parser("families", help="quiver family scenarios")
    fsub = families.add_subparsers(dest="action", required=True)
    fv = fsub.add_parser("verify")
    _add_family_flags(fv)
    fv.add_argument("--seed", type=int, default=0)
    _add_output_flags(fv)
    fv.set_defaults(func=_cmd_scenarios, kinds=("family",))

    group = sub.add_parser("group", help="group-side scenarios")
    gsub = group.add_subparsers(dest="action", required=True)
    gv = gsub.add_parser("verify")
    _add_group_flags(gv)
    _add_sampling_flags(gv)
    _add_output_flags(gv)
    gv.set_defaults(func=_cmd_scenarios, kinds=("group",))

    module = sub.add_parser("module", help="module fixture checks")
    msub = module.add_subparsers(dest="action", required=True)
    mc = msub.add_parser("check")
    mc.add_argument("fixture", metavar="FIXTURE")
    _add_family_flags(mc)
    _add_output_flags(mc)
    mc.set_defaults(func=_cmd_module_check)

    ext = sub.add_parser("ext", help="Ext dimensions by both routes")
    _add_family_flags(ext, "I", 2)
    ext.add_argument("--source", default=None, metavar="PATH")
    ext.add_argument("--target", default=None, metavar="PATH")
    _add_output_flags(ext)
    ext.set_defaults(func=_cmd_ext)

    lift = sub.add_parser("lift", help="built-in lift verification")
    lsub = lift.add_subparsers(dest="action", required=True)
    lv = lsub.add_parser("verify")
    _add_family_flags(lv, "I", 2)
    _add_output_flags(lv)
    lv.set_defaults(func=_cmd_lift_verify)

    obstruction = sub.add_parser(
        "obstruction", help="the p-th power obstruction identity"
    )
    obstruction.add_argument("--p", type=int, default=None)
    _add_sampling_flags(obstruction)
    _add_output_flags(obstruction)
    obstruction.set_defaults(func=_cmd_scenarios, kinds=("obstruction",))

    report = sub.add_parser("report", help="bundled scenario reports")
    rsub = report.add_subparsers(dest="action", required=True)
    ra = rsub.add_parser("all")
    _add_family_flags(ra)
    _add_group_flags(ra)
    _add_sampling_flags(ra)
    _add_output_flags(ra)
    ra.set_defaults(func=_cmd_scenarios,
                    kinds=("family", "group", "obstruction"))

    return top


_parser = functools.cache(build_parser)  # reused: parsing never changes it


def run_command(argv) -> int:
    """Parse argv and run one subcommand, mapping errors to exit codes."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return 0 if err.code in (0, None) else 2
    try:
        return args.func(args)
    except RelationViolated as err:
        sys.stderr.write(
            f"RelationViolated: {err}\n"
        )
        return 1
    except (ValueError, OverflowError) as err:
        sys.stderr.write(f"invalid request: {err}\n")
        return 2
    except OSError as err:
        sys.stderr.write(f"cannot read or write a file: {err}\n")
        return 2
    except RuntimeError as err:
        sys.stderr.write(f"broken invariant: {err}\n")
        return 3


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    return run_command(argv)


if __name__ == "__main__":
    sys.exit(main())
