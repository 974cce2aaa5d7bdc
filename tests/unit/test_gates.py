"""Repository gates: facts about the tree that stay true only if
something checks them.

* The static analyzer (:mod:`repro.analysis`) is an offline tool.  No
  module on the audit path imports it, so an unsound footprint
  prediction can never become an unsound ACCEPT (DESIGN.md §4, §7).
* Every ``--flag`` the documentation names is an option the CLI has.
* Every ``DESIGN.md §N`` citation names a ``## N.`` heading, and the
  headings are numbered 1..N without a gap.
* The figure benchmarks write nothing into the checkout: no
  ``BENCH_*.json`` snapshot sits at the repo root, and no benchmark
  builds a path from its own location or the working directory.
* Stored records have one encoder: nothing outside
  ``storage/values.py`` and the dedup package builds a value's tagged
  document to serialise it (DESIGN.md §8).
"""

import argparse
import ast
import glob
import os
import re

import pytest

import repro
from repro.cli import _build_parser

pytestmark = pytest.mark.tier1

SRC = os.path.dirname(repro.__file__)
ROOT = os.path.normpath(os.path.join(SRC, os.pardir, os.pardir))

# Everything a verdict is computed by, or that the serving side runs.
AUDIT_PATH = ("verifier", "continuous", "service", "server", "kem", "store",
              "storage", "advice", "trace", "core")


def _imports(path):
    """Absolute module names ``path`` imports, function-local imports
    included."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_audit_path_never_imports_the_analyzer():
    offenders = []
    for package in AUDIT_PATH:
        top = os.path.join(SRC, package)
        assert os.path.isdir(top), package
        for dirpath, _dirs, files in os.walk(top):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                offenders += [
                    (os.path.relpath(path, SRC), module)
                    for module in _imports(path)
                    if module.split(".")[:2] == ["repro", "analysis"]
                ]
    assert not offenders, offenders


# -- documentation drift -------------------------------------------------------

DOCS = ("README.md", "DESIGN.md", os.path.join(".claude", "skills", "verify",
                                               "SKILL.md"))
# Flags the docs quote from another tool: `python -m bench`.
FOREIGN = {"--quick", "--workload", "--out"}


def _cli_options(parser):
    out = set()
    for action in parser._actions:
        out.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _cli_options(sub)
    return out


@pytest.mark.parametrize("doc", DOCS)
def test_documented_flags_exist(doc):
    with open(os.path.join(ROOT, doc)) as fh:
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", fh.read()))
    stale = named - _cli_options(_build_parser()) - FOREIGN
    assert not stale, f"{doc} names flags the CLI does not have: {sorted(stale)}"



# -- section citations ---------------------------------------------------------

# Where ``DESIGN.md §N`` citations live; bench/ holds none.
CITING = ("src", "tests", "benchmarks", "examples", "README.md",
          os.path.join(".claude", "skills", "verify", "SKILL.md"))
_CITATION = re.compile(r"DESIGN(?:\.md)?\s+(§\d+(?:\s*,\s*§\d+)*)")


def _citing_files():
    for entry in CITING:
        top = os.path.join(ROOT, entry)
        if os.path.isfile(top):
            yield top
            continue
        for dirpath, _dirs, files in os.walk(top):
            yield from (os.path.join(dirpath, name) for name in files
                        if name.endswith((".py", ".md")))


def test_design_citations_resolve():
    with open(os.path.join(ROOT, "DESIGN.md")) as fh:
        sections = [int(n) for n in re.findall(r"^## (\d+)\.", fh.read(), re.M)]
    assert sections == list(range(1, len(sections) + 1)), sections
    stale = []
    for path in _citing_files():
        with open(path, encoding="utf-8") as fh:
            for match in _CITATION.finditer(fh.read()):
                stale += [
                    (os.path.relpath(path, ROOT), f"§{n}")
                    for n in map(int, re.findall(r"\d+", match.group(1)))
                    if n not in sections
                ]
    assert not stale, f"citations of sections DESIGN.md does not have: {stale}"


# -- benchmark snapshots -------------------------------------------------------


def _checkout_paths(tree):
    """``(line, what)`` for each node of ``tree`` that names a path inside
    the checkout: the module's own location, the working directory, or a
    relative literal passed to ``open``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "__file__":
            yield node.lineno, "__file__"
        elif isinstance(node, ast.Attribute) and node.attr in ("getcwd", "cwd"):
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "open" and node.args
              and isinstance(node.args[0], ast.Constant)):
            yield node.lineno, f"open({node.args[0].value!r})"


def test_benchmarks_write_nothing_into_the_checkout():
    assert not glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    offenders = []
    for path in sorted(glob.glob(os.path.join(ROOT, "benchmarks", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        offenders += [(os.path.relpath(path, ROOT), line, what)
                      for line, what in _checkout_paths(tree)]
    assert not offenders, offenders


# -- one encoder ----------------------------------------------------------------

# The value-document builder's callers: its own module, and the dedup
# package, which digests documents rather than storing them.
DOCUMENT_FORM = ("storage/values.py", "verifier/dedup/")


def test_stored_records_have_one_encoder():
    offenders = []
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            rel = os.path.relpath(os.path.join(dirpath, name), SRC)
            if not name.endswith(".py") or rel.startswith(DOCUMENT_FORM):
                continue
            with open(os.path.join(dirpath, name)) as fh:
                tree = ast.parse(fh.read(), rel)
            offenders += [
                (rel, node.lineno)
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and "encode_value" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))
            ]
    assert not offenders, f"records built as documents: {offenders}"
