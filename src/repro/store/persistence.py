"""Dataset persistence: the ``.tsv`` and ``.jsonl`` text formats.

Both formats hold the sorted distinct triples of
:func:`~repro.model.triples.entity_graph_to_triples`, one row each with
its count:

* **TSV** — ``subject<TAB>predicate<TAB>object<TAB>count``; tabs,
  newlines, carriage returns and backslashes in terms are escaped.
* **JSONL** — one ``{"s", "p", "o", "n"}`` JSON object per row; trivially
  greppable and robust to arbitrary term content.

Readers check every row strictly, sum repeated rows in first-seen order
and decode the result with
:func:`~repro.model.triples.triples_to_entity_graph`.  Any failure, from
an unreadable file to a row that does not decode, raises
:class:`~repro.exceptions.PersistenceError` naming the file.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from itertools import chain, repeat
from typing import Callable, Optional, Tuple, Union

from ..exceptions import ModelError, PersistenceError
from ..model.entity_graph import EntityGraph
from ..model.triples import Triple, entity_graph_to_triples, triples_to_entity_graph

PathLike = Union[str, "os.PathLike[str]"]

_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}

_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _escape(term: str) -> str:
    out = term
    for raw, escaped in _ESCAPES.items():
        out = out.replace(raw, escaped)
    return out


def _unescape(term: str, location: str = "<term>") -> str:
    """Decode one escaped TSV term; malformed escapes fail loudly.

    ``location`` (``path:line``) prefixes the diagnostics.  An unknown
    escape sequence (``\\x``) or a trailing lone backslash means the
    term was not produced by :func:`save_tsv` — decoding it silently
    would hand a mangled term to the decoder, so both raise
    :class:`~repro.exceptions.PersistenceError` instead.
    """
    out = []
    i = 0
    while i < len(term):
        ch = term[i]
        if ch == "\\":
            if i + 1 >= len(term):
                raise PersistenceError(
                    f"{location}: trailing lone backslash in term {term!r}"
                )
            nxt = term[i + 1]
            mapped = _UNESCAPES.get(nxt)
            if mapped is None:
                raise PersistenceError(
                    f"{location}: unknown escape sequence "
                    f"'\\{nxt}' in term {term!r}"
                )
            out.append(mapped)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _save(graph: EntityGraph, path: PathLike, line: Callable[[Triple, int], str]) -> int:
    """Write the sorted distinct ``(triple, count)`` rows of ``graph``.

    The rows are encoded, down to UTF-8 bytes, before the file is opened,
    so a graph the codec refuses, or a name that is not valid UTF-8 (a
    lone surrogate), leaves no file behind.  Returns the number of rows
    written.
    """
    try:
        rows = sorted(Counter(entity_graph_to_triples(graph)).items())
        payload = "".join(line(triple, count) for triple, count in rows).encode("utf-8")
    except (ModelError, UnicodeEncodeError) as exc:
        raise PersistenceError(f"cannot write {path!s}: {exc}") from exc
    try:
        with open(path, "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        raise PersistenceError(f"cannot write {path!r}: {exc}") from exc
    return len(rows)


def _load(
    path: PathLike, name: str, parse: Callable[[str, str], Optional[Tuple[Triple, int]]]
) -> EntityGraph:
    """Read rows with ``parse``, sum repeats in first-seen order, decode.

    ``parse(line, location)`` returns ``(triple, count)``, or None for a
    blank line.
    """
    counts: Counter = Counter()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                row = parse(line, f"{path!s}:{line_number}")
                if row is not None:
                    triple, count = row
                    counts[triple] += count
    except (OSError, UnicodeDecodeError) as exc:
        raise PersistenceError(f"cannot read {path!r}: {exc}") from exc
    triples = chain.from_iterable(repeat(t, n) for t, n in counts.items())
    try:
        return triples_to_entity_graph(triples, name=name)
    except ModelError as exc:
        raise PersistenceError(f"{path!s}: {exc}") from exc


# ----------------------------------------------------------------------
# TSV
# ----------------------------------------------------------------------
def _tsv_line(triple: Triple, count: int) -> str:
    subject, predicate, obj = (_escape(term) for term in triple)
    return f"{subject}\t{predicate}\t{obj}\t{count}\n"


def _parse_tsv(line: str, location: str) -> Optional[Tuple[Triple, int]]:
    line = line.rstrip("\n")
    if not line:
        return None
    parts = line.split("\t")
    if len(parts) != 4:
        raise PersistenceError(
            f"{location}: expected 4 tab-separated fields, got {len(parts)}"
        )
    subject, predicate, obj, count_text = parts
    try:
        count = int(count_text)
    except ValueError:
        raise PersistenceError(f"{location}: bad count {count_text!r}") from None
    if count <= 0:
        raise PersistenceError(f"{location}: count must be >= 1, got {count}")
    terms = (_unescape(term, location) for term in (subject, predicate, obj))
    return Triple(*terms), count


def save_tsv(graph: EntityGraph, path: PathLike) -> int:
    """Write ``graph`` as TSV; returns the number of rows written."""
    return _save(graph, path, _tsv_line)


def load_tsv(path: PathLike, name: str = "entity-graph") -> EntityGraph:
    """Read a TSV file written by :func:`save_tsv` into a graph ``name``."""
    return _load(path, name, _parse_tsv)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def _jsonl_line(triple: Triple, count: int) -> str:
    subject, predicate, obj = triple
    record = {"s": subject, "p": predicate, "o": obj, "n": count}
    return json.dumps(record, ensure_ascii=False) + "\n"


def _parse_jsonl(line: str, location: str) -> Optional[Tuple[Triple, int]]:
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
        count = record.get("n", 1)
        triple = Triple(record["s"], record["p"], record["o"])
    except (json.JSONDecodeError, AttributeError, KeyError) as exc:
        raise PersistenceError(f"{location}: malformed record: {exc!r}") from exc
    if not all(isinstance(term, str) for term in triple):
        raise PersistenceError(f"{location}: terms must be strings")
    if type(count) is not int or count <= 0:
        raise PersistenceError(
            f"{location}: count must be an integer >= 1, got {count!r}"
        )
    return triple, count


def save_jsonl(graph: EntityGraph, path: PathLike) -> int:
    """Write ``graph`` as JSON-Lines; returns the number of rows written."""
    return _save(graph, path, _jsonl_line)


def load_jsonl(path: PathLike, name: str = "entity-graph") -> EntityGraph:
    """Read a JSONL file written by :func:`save_jsonl` into a graph ``name``."""
    return _load(path, name, _parse_jsonl)
