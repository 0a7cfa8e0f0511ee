"""The declared registry of ``REPRO_*`` environment knobs.

Every environment variable the codebase reads is declared here, once,
with its type, default and one-line purpose — and the static checker
(:mod:`repro.lint`, rule REP110) rejects any ``os.environ`` read of a
``REPRO_*`` name anywhere else.  That keeps the knob surface enumerable:
``repro-preview lint --list-rules`` documents the *rules*,
:func:`knob_catalog` documents the *knobs*, and neither can silently
drift from the code.

Reads happen at call time, never at import time, so tests that
``monkeypatch.setenv`` and processes that mutate their environment see
the current value — the same lazy semantics the scattered reads this
module replaced always had.

Raises :class:`~repro.exceptions.ConfigError` for reads of undeclared
names; malformed *values* raise whatever the caller-facing contract
promises (e.g. ``REPRO_PLAN`` raises
:class:`~repro.exceptions.PlanError`), which is why :func:`raw_knob`
exposes the unparsed string.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from .exceptions import ConfigError

#: Declared knob name -> spec.  The single source of truth for which
#: REPRO_* variables exist (REP110 forbids reads anywhere else).
_KNOBS: Dict[str, "Knob"] = {}


@dataclass(frozen=True)
class Knob:
    """One declared environment knob.

    Attributes
    ----------
    name:
        The full environment-variable name (``REPRO_KERNEL``).
    default:
        The unparsed default used when the variable is unset (``None``
        means "no default": the accessor reports absence).
    description:
        One line for :func:`knob_catalog` and the docs table.
    """

    name: str
    default: Optional[str]
    description: str


def _declare(name: str, default: Optional[str], description: str) -> Knob:
    knob = Knob(name=name, default=default, description=description)
    _KNOBS[name] = knob
    return knob


KERNEL = _declare(
    "REPRO_KERNEL",
    "auto",
    "scoring kernel backend: auto | oracle | python | numpy",
)
TEST_JOBS = _declare(
    "REPRO_TEST_JOBS",
    "2",
    "worker count the parallel-path test legs exercise",
)
RESULTS_DIR = _declare(
    "REPRO_RESULTS_DIR",
    None,
    "override directory for benchmark artifacts (default: <repo>/results)",
)
PLAN = _declare(
    "REPRO_PLAN",
    "auto",
    "execution planner mode: auto | serial | sharded",
)
REPLICATION_WINDOW = _declare(
    "REPRO_REPLICATION_WINDOW",
    "1024",
    "writer-side replication log entries retained for delta catch-up",
)


def raw_knob(name: str) -> Optional[str]:
    """The current unparsed value of a *declared* knob.

    Returns the environment value if set, else the declared default
    (which may be ``None``).  This is the one sanctioned path from a
    ``REPRO_*`` name to ``os.environ`` — callers that need bespoke
    parsing/error contracts (the planner mode) build on this.

    Raises
    ------
    ConfigError
        For a name not declared in this module.
    """
    knob = _KNOBS.get(name)
    if knob is None:
        raise ConfigError(
            f"undeclared environment knob {name!r}; declare it in "
            "repro.config before reading it"
        )
    value = os.environ.get(name)
    return value if value is not None else knob.default


def kernel_backend() -> str:
    """The requested kernel backend name, normalized (default ``auto``)."""
    value = (raw_knob(KERNEL.name) or "auto").strip().lower()
    return value or "auto"


def test_jobs() -> int:
    """Worker count for the parallel test legs (default 2).

    Raises
    ------
    ConfigError
        When ``REPRO_TEST_JOBS`` is set but not a positive integer.
    """
    raw = raw_knob(TEST_JOBS.name) or "2"
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{TEST_JOBS.name} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigError(f"{TEST_JOBS.name} must be >= 1, got {value}")
    return value


def results_dir_override() -> Optional[str]:
    """The results-directory override, or ``None`` to use the default."""
    return raw_knob(RESULTS_DIR.name)


def replication_window() -> int:
    """Writer-side replication-log retention, entries (default 1024).

    A subscriber whose baseline generation fell behind the retained
    window bootstraps from a snapshot instead of the delta stream.

    Raises
    ------
    ConfigError
        When ``REPRO_REPLICATION_WINDOW`` is set but not a positive
        integer.
    """
    raw = raw_knob(REPLICATION_WINDOW.name) or "1024"
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{REPLICATION_WINDOW.name} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigError(f"{REPLICATION_WINDOW.name} must be >= 1, got {value}")
    return value


def knob_catalog() -> List[Dict[str, Optional[str]]]:
    """JSON-ready summaries of every declared knob, sorted by name."""
    return [
        {
            "name": knob.name,
            "default": knob.default,
            "description": knob.description,
        }
        for name, knob in sorted(_KNOBS.items())
    ]
