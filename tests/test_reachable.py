"""Every definition in the package is reached by the program, not by tests
alone.

A module-level function or class of ``src/mks``, or a non-dunder method
of such a class, counts as reached when some name or attribute in the
package modules or in ``perfbench/`` spells it, or when a string constant
in ``perfbench/`` does (the tracer names its targets that way).  Oracles
that only check other code belong in ``tests/``.

The package's settable values are counted too: function parameters with a
default plus class fields with a default, over every module of ``src/mks``.
The count is pinned, so a change that adds or removes one shows it in its
own diff.

The package ``__init__.py`` binds no names but its dunders: every caller
imports a name from the module that defines it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mks").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# settable values in src/mks, by the rule above
SETTABLE_VALUES = 33

# read_checkpoint reads the MKS1 checkpoints that ``mks run`` writes and
# rejects corrupt ones; no run reads a checkpoint back, but the format's
# reader belongs next to its writer.
UNREACHED_BY_DESIGN = {"read_checkpoint"}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield item.name


def _references(tree, strings: bool):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield node.value


def test_every_definition_is_reached_by_the_program():
    defined, used = set(), set()
    for path in PACKAGE:
        tree = _parse(path)
        defined.update(_definitions(tree))
        used.update(_references(tree, strings=False))
    for path in PERFBENCH:
        used.update(_references(_parse(path), strings=True))
    assert defined - used == UNREACHED_BY_DESIGN


def _settable_values(tree) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(item, ast.AnnAssign)
                         and item.value is not None for item in node.body)
    return count


def test_settable_values_are_counted():
    assert sum(_settable_values(_parse(p)) for p in PACKAGE) == SETTABLE_VALUES


def test_package_init_reexports_nothing():
    code = ("import mks; "
            "print([n for n in vars(mks) if not n.startswith('__')])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.stdout.strip() == "[]"
