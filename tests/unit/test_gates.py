"""Repository gates: facts about the tree that stay true only if
something checks them.

* The static analyzer (:mod:`repro.analysis`) is an offline tool.  No
  module on the audit path imports it, so an unsound effect summary can
  never become an unsound ACCEPT (DESIGN.md §4, §12).
* Every ``--flag`` the documentation names is an option the CLI has.
"""

import argparse
import ast
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
# Flags the docs quote from other tools: pytest-benchmark and `python -m
# bench`.
FOREIGN = {"--benchmark-only", "--quick", "--workload", "--out"}


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

