"""Every public top-level function and class of the package, and every public
method and property of its classes, is used by the toolkit; so is every
private top-level function and class.

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


def _defs(owner, body, private=False):
    """(owner, name, references inside its own definition) for each function
    or class of a module body, or method or property of a class body, whose
    name is private (a leading underscore) when private is set, public if not."""
    return [(owner, node.name, _references(node)[node.name]) for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private]


def _scan():
    """(references from src, demos, benchmarks and the entry points, the
    parsed modules of src as (name, tree) pairs)."""
    refs = collections.Counter()
    modules = []
    for folder in ("src", "demos", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            refs.update(_references(tree))
            if folder == "src":
                modules.append((path.stem, tree))
    # console-script entry points, "module:function"
    refs.update(re.findall(r'= "vtschur\.[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    return refs, modules


def _unused(refs, defs):
    return ["%s.%s" % (mod, name) for mod, name, own in defs if refs[name] <= own]


def test_every_public_symbol_is_referenced():
    refs, modules = _scan()
    defs = []
    for stem, tree in modules:
        defs += _defs(stem, tree.body)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs += _defs("%s.%s" % (stem, node.name), node.body)
    assert not _unused(refs, defs), _unused(refs, defs)


def test_every_private_top_level_symbol_is_referenced():
    refs, modules = _scan()
    defs = [d for stem, tree in modules for d in _defs(stem, tree.body, private=True)]
    assert not _unused(refs, defs), _unused(refs, defs)
