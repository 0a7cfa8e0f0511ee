"""repro.kernel — batched columnar scoring with selectable backends.

The kernel scores *batches* of key subsets per call (columnar lowering,
batch-at-a-time evaluation) instead of re-running the per-subset heap
merge, with three interchangeable backends behind one interface:

``python``
    Pure-stdlib batched backend, always available — the default when
    numpy is not installed.  ``pip install repro`` stays dependency-free.
``numpy``
    Vectorized backend over padded rectangles; optional, selected
    automatically when numpy is importable.
``oracle``
    The retained per-subset path (the original heap merge), used as the
    conformance baseline by tests and benchmarks.

Selection happens through the ``REPRO_KERNEL`` environment variable
(``auto`` | ``python`` | ``numpy`` | ``oracle``; default ``auto``), read
once on first use; :func:`set_backend` / :func:`use_backend` switch
in-process.  All backends return bit-identical scores and the serial
lowest-index tie-break — see ``docs/scoring-kernel.md``.  The python
and numpy backends also gather per-subset Theorem-3 bounds, which
:func:`~repro.core.candidates.discover_among` prunes by; the oracle
does not, so it stays the unpruned reference.
"""

from __future__ import annotations

import importlib.util
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from .. import config
from ..exceptions import KernelError
from .base import (
    BATCH_SIZE,
    BestAllocation,
    KernelBackend,
    OracleBackend,
    Subsets,
    kernel_stats,
    record_batch,
    reset_kernel_stats,
    thread_kernel_stats,
)
from .pure import PythonBackend

__all__ = [
    "BATCH_SIZE",
    "ENV_BACKEND",
    "KernelBackend",
    "OracleBackend",
    "PythonBackend",
    "active_backend",
    "available_backends",
    "backend_name",
    "best_allocation",
    "get_backend",
    "kernel_stats",
    "lowered",
    "record_batch",
    "reset_kernel_stats",
    "set_backend",
    "thread_kernel_stats",
    "use_backend",
]

#: Environment variable naming the backend to activate on first use
#: (declared in :mod:`repro.config`; kept here for callers that
#: reference the name when spawning subprocesses).
ENV_BACKEND = config.KERNEL.name

_CACHE: Dict[str, KernelBackend] = {}
_active = None


def _numpy_available() -> bool:
    # find_spec, not import: probing must never pull numpy into a
    # process that selected the python backend.
    return importlib.util.find_spec("numpy") is not None


def available_backends() -> Tuple[str, ...]:
    """Backend names loadable in this environment."""
    names = ["oracle", "python"]
    if _numpy_available():
        names.append("numpy")
    return tuple(names)


def get_backend(name: str) -> KernelBackend:
    """The backend registered under ``name`` (resolving ``auto``).

    Raises :class:`~repro.exceptions.KernelError` for unknown names and
    for ``numpy`` when numpy is not installed.  Worker processes call
    this with the backend name shipped in their shard payload.
    """
    cached = _CACHE.get(name)
    if cached is not None:
        return cached
    if name == "auto":
        backend = get_backend("numpy" if _numpy_available() else "python")
    elif name == "oracle":
        backend = OracleBackend()
    elif name == "python":
        backend = PythonBackend()
    elif name == "numpy":
        try:
            from .numpy_backend import NumpyBackend
        except ImportError:
            raise KernelError(
                "kernel backend 'numpy' requested but numpy is not "
                "installed; install numpy or select REPRO_KERNEL=python"
            ) from None
        backend = NumpyBackend()
    else:
        raise KernelError(
            f"unknown kernel backend {name!r}; expected one of "
            "auto, oracle, python, numpy"
        )
    _CACHE[name] = backend
    return backend


def active_backend() -> KernelBackend:
    """The process-wide backend, resolving ``REPRO_KERNEL`` on first use."""
    global _active
    if _active is None:
        _active = get_backend(config.kernel_backend())
    return _active


def backend_name() -> str:
    """Name of the active backend (``oracle`` | ``python`` | ``numpy``)."""
    return active_backend().name


def set_backend(name: str) -> KernelBackend:
    """Activate ``name`` process-wide; returns the backend."""
    global _active
    _active = get_backend(name)
    return _active


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Temporarily activate ``name`` (tests and benchmark legs)."""
    global _active
    previous = _active
    _active = get_backend(name)
    try:
        yield _active
    finally:
        _active = previous


def lowered(backend: KernelBackend, source) -> object:
    """``backend``'s columns for ``source``, lowered once per candidate pool.

    A :class:`~repro.scoring.CandidatePool` keeps each backend's columns
    in its ``kernel_columns`` field, so they (and the per-budget tail
    caches inside them) live as long as the pool.  A finished lowering
    is stored with one dict assignment: two threads may both lower a
    fresh pool, but neither ever reads a partial one.  Sources without
    the field, such as a :class:`~repro.parallel.ScoringSnapshot`, are
    lowered on every call.
    """
    cache = getattr(source, "kernel_columns", None)
    if cache is None:
        return backend.lower(source)
    columns = cache.get(backend.name)
    if columns is None:
        columns = backend.lower(source)
        cache[backend.name] = columns
    return columns


def best_allocation(source, subsets: Subsets, extra_cap: int) -> BestAllocation:
    """One serial dispatch: score every subset of ``subsets``, count the batch.

    Unpruned: each subset runs the Theorem-3 merge, so this stays the
    batch-scoring entry ``benchmarks/bench_kernel.py`` times;
    :func:`~repro.core.candidates.discover_among` prunes by bounds
    before it calls in.  ``source`` is lowered through :func:`lowered`.
    The entry every serial consumer uses; sharded dispatch goes through
    :meth:`~repro.parallel.ShardedExecutor.best_allocation`, which
    records its batch on the parent side instead.
    """
    if not subsets:
        return None
    backend = active_backend()
    record_batch(len(subsets))
    return backend.best_allocation(lowered(backend, source), subsets, extra_cap)
