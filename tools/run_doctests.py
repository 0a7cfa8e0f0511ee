#!/usr/bin/env python3
"""Run the doctest suites of the doctest-bearing modules.

``python -m doctest src/repro/engine/engine.py`` cannot work directly —
the file uses relative imports, and doctest's CLI imports it as a
top-level script.  This wrapper gives the same behavior through a
proper package import: each module below is imported as part of the
``repro`` package and its docstring examples are executed with
:func:`doctest.testmod`.

Usage::

    PYTHONPATH=src python tools/run_doctests.py

Exits non-zero if any example fails, printing doctest's usual report.
New modules that gain ``>>>`` examples should be added to
:data:`MODULES`.
"""

from __future__ import annotations

import doctest
import importlib
import sys
from pathlib import Path

#: Modules whose docstrings carry runnable examples.
MODULES = (
    "repro",
    "repro.engine.engine",
    "repro.engine.query",
    "repro.model.triples",
    "repro.serve.protocol",
    "repro.workload.generator",
)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    total_attempted = 0
    total_failed = 0
    for name in MODULES:
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        total_attempted += result.attempted
        total_failed += result.failed
        status = "ok" if result.failed == 0 else "FAILED"
        print(f"{name}: {result.attempted} example(s), {result.failed} failed [{status}]")
        if result.attempted == 0:
            print(f"{name}: no examples found — drop it from MODULES or add some")
            total_failed += 1
    if total_failed:
        print(f"run_doctests: {total_failed} failure(s) over {total_attempted} examples")
        return 1
    print(f"run_doctests: all {total_attempted} examples passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
