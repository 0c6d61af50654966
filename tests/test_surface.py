"""The program's public surface: every public name has a caller.

A public top-level function or class of `src/defcert`, or a public method
of such a class, must be referenced somewhere in `src/defcert` outside
its own definition, or be named in `bench/*.py`, which drives the program
from outside.  A name that only tests reach is surface to delete.
References are matched by name, as a bare name or an attribute, so a
method counts as referenced when any attribute of that name is.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "defcert"
EXEMPT = {"cli.main"}  # the console-script entry point


def public_definitions(tree):
    """(qualified name, node) of each public top-level function and class
    and of each public method of a public class; dunders are private."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def referenced_names(tree):
    """(name, node) for every bare name and attribute used in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def bench_names():
    """Identifiers in bench/*.py, plus the parts of dotted-path strings
    such as the traced name "quiver.CompletedSystem.reduce_terms"."""
    names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        names.update(name for name, _ in referenced_names(tree))
        names.update(part for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str)
                     and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)
                     for part in node.value.split("."))
    return names


def program_sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def unreferenced_public_names(sources):
    """Qualified public names of the modules in sources (module name ->
    source text) that nothing references outside their own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    uses = [use for tree in trees.values() for use in referenced_names(tree)]
    outside = bench_names()
    found = []
    for module, tree in trees.items():
        for qualified, definition in public_definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            own = {id(node) for node in ast.walk(definition)}
            if (f"{module}.{qualified}" in EXEMPT or name in outside
                    or any(used == name and id(node) not in own
                           for used, node in uses)):
                continue
            found.append(f"{module}.{qualified}")
    return found


def test_every_public_name_has_a_caller_in_the_program_or_the_benchmark():
    assert unreferenced_public_names(program_sources()) == []


def test_a_name_reached_only_from_its_own_body_has_no_caller():
    sources = program_sources()
    sources["cli"] += "\n\ndef orphan(n):\n    return orphan(n - 1)\n"
    assert unreferenced_public_names(sources) == ["cli.orphan"]


def handle_methods(cls):
    return {name for name, value in vars(cls).items()
            if callable(value) and not name.startswith("_")}


def test_both_algebra_handles_expose_the_methods_the_protocol_lists():
    from defcert import fdmod, groups

    methods = handle_methods(fdmod.QuiverAlgebra)
    assert methods == handle_methods(groups.GroupAlgebra)
    assert set(re.findall(r"^  (\w+)\(", fdmod.__doc__, re.M)) == methods
