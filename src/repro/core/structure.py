"""Structure indexes: one resolved ``D(t)`` per structure version.

A structure version (Definition 9) is a span between two critical
instants over which ``D(t)`` cannot change, and the levels of Definition
4 are derived from that fixed graph.  Everything a statement asks of the
structure — which levels exist, which member versions are leaves, a
leaf's attributes, the names of its ancestors at a level — is therefore
a property of the version, not of the statement.  :class:`StructureIndex`
resolves it once per (structure version, dimension); the version memoizes
its indexes (:meth:`~repro.core.versions.StructureVersion.index`), so
their lifetime is the version's and no global registry exists.

The temporally consistent mode needs ``D(t)`` at each fact's own instant.
Between critical instants that is exactly the snapshot of the version
containing ``t``, so ``tcm`` lookups reuse the version's index
(:meth:`~repro.core.presentation.ModeSet.version_at`).
"""

from __future__ import annotations

import threading
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.observability import runtime as _obs

from .chronology import Instant
from .dimension import TemporalDimension

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .versions import StructureVersion

__all__ = ["NO_LABEL", "StructureIndex", "levels_across"]

# Serializes index builds: server sessions resolve structure on worker
# threads, and each (version, dimension) index must be built once.
BUILD_LOCK = threading.Lock()

NO_LABEL: tuple[object, ...] = (None,)
"""The label tuple of a member with no ancestor at the requested level."""


class StructureIndex:
    """Resolution tables for one dimension over one structure version.

    Holds the DAG-checked snapshot ``D(t)`` at the version's start, its
    Definition 4 levels and its leaves.  ``token`` is the
    :attr:`~repro.core.dimension.TemporalDimension.version_token` of the
    dimension it was built from, so a holder can tell when it went stale.
    The per-level ancestor-name tables fill lazily, one level at a time.
    """

    __slots__ = (
        "token",
        "snapshot",
        "levels",
        "leaves",
        "_ancestors",
        "_names_at_level",
    )

    def __init__(self, dimension: TemporalDimension, t: Instant) -> None:
        self.token = dimension.version_token  # read first: never newer than D(t)
        snapshot = dimension.at(t)
        self.snapshot = snapshot
        self.levels: Mapping[str, tuple[str, ...]] = MappingProxyType(
            {level: tuple(ids) for level, ids in snapshot.levels().items()}
        )
        self.leaves = frozenset(snapshot.leaves())
        self._ancestors: dict[str, frozenset[str]] | None = None
        self._names_at_level: dict[str, Mapping[str, tuple[object, ...]]] = {}

    @classmethod
    def build(cls, dimension: TemporalDimension, t: Instant) -> "StructureIndex":
        """Build an index, spanned and counted (the expensive event)."""
        tracer = _obs.current_tracer()
        with tracer.span(
            "structure.index_build",
            attributes={"dimension": dimension.did, "t": t},
        ):
            index = cls(dimension, t)
        metrics = _obs.current_metrics()
        if metrics.enabled:
            metrics.counter(
                "structure.index_builds", {"dimension": dimension.did}
            ).inc()
        return index

    def attribute(self, mvid: str, name: str) -> object:
        """Attribute ``name`` of ``mvid`` (``None`` when either is absent)."""
        mv = self.snapshot.members.get(mvid)
        return None if mv is None else mv.attributes.get(name)

    def names_at_level(self, level: str) -> Mapping[str, tuple[object, ...]] | None:
        """``{member version: names of its ancestors-or-self at level}``.

        Several names come back under multiple hierarchies (sorted by
        member version id); ``(None,)`` when a member has no ancestor at
        the level (non-covering hierarchies).  ``None`` when the level
        does not exist in this structure.
        """
        table = self._names_at_level.get(level)
        if table is not None:
            return table
        members = self.levels.get(level)
        if members is None:
            return None
        at_level = set(members)
        snap = self.snapshot
        ancestors = self._ancestor_sets()
        built: dict[str, tuple[object, ...]] = {}
        for mvid in snap.members:
            hits = sorted(({mvid} | ancestors[mvid]) & at_level)
            built[mvid] = (
                tuple(snap.members[h].name for h in hits) if hits else NO_LABEL
            )
        # Racing fillers compute equal tables; every caller keeps the first.
        return self._names_at_level.setdefault(level, MappingProxyType(built))

    def _ancestor_sets(self) -> dict[str, frozenset[str]]:
        ancestors = self._ancestors
        if ancestors is None:
            snap = self.snapshot
            ancestors = {}
            for node in snap.topological_order():
                above: set[str] = set()
                for parent in snap.parents(node):
                    above.add(parent)
                    above |= ancestors[parent]
                ancestors[node] = frozenset(above)
            self._ancestors = ancestors
        return ancestors


def levels_across(versions: Iterable["StructureVersion"], did: str) -> list[str]:
    """Level labels of ``did`` over several structure versions, in first-seen
    order (levels evolve; a level any version knows is a valid level)."""
    levels: list[str] = []
    for version in versions:
        for level in version.index(did).levels:
            if level not in levels:
                levels.append(level)
    return levels
