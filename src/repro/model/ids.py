"""Identifier conventions for entities, entity types and relationship types.

The paper distinguishes surface names from underlying identifiers: two
relationship types may share the surface name ``Award Winners`` while being
distinct types (FILM ACTOR -> AWARD vs. FILM DIRECTOR -> AWARD).  We make
that explicit with :class:`RelationshipTypeId`, a value object combining
the surface name with the source and target entity types — exactly the
information that, per Sec. 2, "determines the types of its two end
entities".

Entities and entity types are identified by plain strings (URIs or names);
light wrapper aliases are provided for documentation purposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ModelError

#: An entity identifier (a URI or a unique name).
EntityId = str

#: An entity-type identifier (e.g. ``"FILM"`` or ``"/film/film"``).
TypeId = str


@dataclass(frozen=True, order=True)
class RelationshipTypeId:
    """A relationship type ``γ(source_type, target_type)`` with a surface name.

    Equality includes the endpoint types, so two edges named ``Award
    Winners`` from different source types are different relationship types,
    matching the paper's data model.

    Ordering is the tuple order of ``(name, source_type, target_type)``,
    so sorting ``(source, target, rel_type)`` instances gives the row
    order :func:`~repro.datasets.loader.graph_fingerprint` hashes; a
    change to the fields or their order moves every pinned fingerprint.

    The hash is computed once, at construction: every edge of a graph
    hashes its type when counted or indexed.  It is the value
    ``hash((name, source_type, target_type))`` the generated method
    would return, so set and dict order do not move, and pickling
    rebuilds the object from its three names, so a process with another
    hash seed recomputes it.
    """

    name: str
    source_type: TypeId
    target_type: TypeId
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.name, self.source_type, self.target_type))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.name, self.source_type, self.target_type))

    def __str__(self) -> str:
        return f"{self.name} ({self.source_type} -> {self.target_type})"

    def reversed(self) -> "RelationshipTypeId":
        """The same surface name viewed from the opposite direction.

        Note this is a *different* relationship type; it exists only when
        the data actually contains such edges.  Used by tooling that
        renders both directions.
        """
        return RelationshipTypeId(self.name, self.target_type, self.source_type)


def qualified_name(rel_type: RelationshipTypeId) -> str:
    """The compact ``source_type|name|target_type`` form the triple codec uses.

    Raises :class:`~repro.exceptions.ModelError` when a part contains
    ``|``, because :func:`parse_qualified_name` could not split it back.
    """
    parts = (rel_type.source_type, rel_type.name, rel_type.target_type)
    if any("|" in part for part in parts):
        raise ModelError(f"relationship type {rel_type} has '|' in a part")
    return "|".join(parts)


def parse_qualified_name(text: str) -> RelationshipTypeId:
    """Inverse of :func:`qualified_name`.

    Raises :class:`~repro.exceptions.ModelError` if the text does not
    have exactly three ``|``-separated fields.
    """
    parts = text.split("|")
    if len(parts) != 3:
        raise ModelError(f"malformed qualified relationship type: {text!r}")
    source_type, name, target_type = parts
    return RelationshipTypeId(name=name, source_type=source_type, target_type=target_type)
