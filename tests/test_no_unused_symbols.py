"""Every public top-level function and class of the package, and every public
method and property of its classes, is used by the toolkit.

A reference from the tests does not count: code that only tests use belongs
in tests/.  References from benchmarks/ do count, because the benchmark
tracer hooks package code by name (linalg.IncrementalRank.add, the
cache_info() of flags._sum_dim)."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _references(tree):
    """Counter of the names a syntax tree reads, as names, attributes or imports."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
    return out


def _public_defs(owner, body):
    """(owner, name, references inside its own definition) for each public
    function or class of a module body, or method or property of a class body."""
    return [(owner, node.name, _references(node)[node.name]) for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def test_every_public_symbol_is_referenced():
    refs = collections.Counter()
    defs = []  # (module, name, references inside its own definition)
    for folder in ("src", "demos", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            refs.update(_references(tree))
            if folder == "src":
                defs += _public_defs(path.stem, tree.body)
                for node in tree.body:
                    if isinstance(node, ast.ClassDef):
                        defs += _public_defs("%s.%s" % (path.stem, node.name), node.body)
    # console-script entry points, "module:function"
    refs.update(re.findall(r'= "vtschur\.[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    unused = ["%s.%s" % (mod, name) for mod, name, own in defs if refs[name] <= own]
    assert not unused, unused
