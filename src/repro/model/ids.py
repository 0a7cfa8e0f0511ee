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

from dataclasses import dataclass

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
    """

    name: str
    source_type: TypeId
    target_type: TypeId

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
