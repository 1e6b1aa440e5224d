"""The MultiVersion Fact Table (Definition 11).

``f' : D1 × ... × Dn × T × TMP → dom(m1) × ... × dom(mm) × CF^m`` associates
measure values *and confidence factors* to leaf member versions valid for a
given presentation mode (not necessarily for the fact's own time ``t``), a
time and a mode.

The table is **inferred** from the Temporal Multidimensional Schema:

* the ``tcm`` slice is the temporally consistent fact table with every
  confidence set to ``sd`` (the paper's identity
  ``f'|tcm = f × {sd}^m``);
* for each structure-version mode ``VMi``, every consistent fact is routed
  along mapping relationships to the leaf member versions valid in ``Vi``:
  a fact already valid there keeps its value with ``sd``, others traverse
  the mapping graph (``F`` forward, ``F⁻¹`` backward), composing functions
  and confidences hop by hop;
* several contributions landing on the same ``(coordinates, t, mode)`` cell
  (merges) are folded with each measure's ``⊕`` and the confidence
  aggregate ``⊗cf`` (Definition 12);
* facts with *no route at all* into a mode are collected in
  :attr:`MultiVersionFactTable.unmapped` — the impossible cross-points the
  §5.2 front end paints red.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .chronology import Instant
from .confidence import ConfidenceFactor, SD, UK
from .errors import AppendRefusedError, QueryError
from .facts import FactRow, MaxAggregate, MinAggregate, SumAggregate
from .mapping import Route
from .presentation import ModeSet, PresentationMode, TCM_LABEL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .schema import TemporalMultidimensionalSchema

__all__ = ["MVFactRow", "UnmappedFact", "MultiVersionFactTable"]

#: Aggregates whose fold over ``[a, b, c]`` equals the fold over
#: ``[fold([a, b]), c]`` — the ones an append can fold into a cell.
_FOLDABLE = (SumAggregate, MinAggregate, MaxAggregate)


@dataclass(frozen=True)
class MVFactRow:
    """One cell of the MultiVersion fact table.

    ``coordinates`` are leaf member version ids valid in the row's mode;
    ``values`` may hold ``None`` for unknown-mapped measures, whose
    ``confidences`` entry is then ``uk``.  ``provenance`` records how each
    contribution was computed (source coordinates and applied conversions) —
    the §5.2 metadata giving the user "direct access to very precise
    information on the way the data were calculated".
    """

    coordinates: Mapping[str, str]
    t: Instant
    mode: str
    values: Mapping[str, float | None]
    confidences: Mapping[str, ConfidenceFactor]
    provenance: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coordinates", MappingProxyType(dict(self.coordinates)))
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        object.__setattr__(self, "confidences", MappingProxyType(dict(self.confidences)))

    def value(self, measure: str) -> float | None:
        """The (possibly unknown) value of ``measure``."""
        return self.values.get(measure)

    def confidence(self, measure: str) -> ConfidenceFactor:
        """The confidence factor attached to ``measure``."""
        return self.confidences.get(measure, UK)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        coords = ", ".join(f"{d}={m}" for d, m in sorted(self.coordinates.items()))
        vals = ", ".join(
            f"{m}={v}({self.confidences[m].symbol})" for m, v in self.values.items()
        )
        return f"MVFact[{self.mode}]({coords}, t={self.t}, {vals})"


@dataclass(frozen=True)
class UnmappedFact:
    """A consistent fact that cannot be presented in a mode at all.

    ``dimension`` names the axis along which no mapping route exists from
    the fact's member version into the mode's structure version.
    """

    fact: FactRow
    mode: str
    dimension: str
    source: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Unmapped(mode={self.mode}, dim={self.dimension}, "
            f"source={self.source}, t={self.fact.t})"
        )


class _CellAccumulator:
    """Contributions to one MV cell in fact order, with their provenance
    entries; :meth:`MultiVersionFactTable._store` folds them with ``⊕``
    and ``⊗cf`` (Definition 12).

    ``values`` and ``confidences`` are flat: each contribution appends
    one entry per measure, in the schema's measure order.
    """

    __slots__ = ("values", "confidences", "provenance")

    def __init__(self) -> None:
        self.values: list[float | None] = []
        self.confidences: list[ConfidenceFactor] = []
        self.provenance: list[str] = []


def _row_order(row: MVFactRow) -> tuple[Instant, tuple[tuple[str, str], ...]]:
    """The order of rows within a version-mode slice: ``(t, coordinates)``."""
    return row.t, tuple(sorted(row.coordinates.items()))


class MultiVersionFactTable:
    """The inferred multiversion store behind every presentation mode.

    Build with :meth:`build`, grow with :meth:`append_fact`; query with
    :meth:`slice`, :meth:`lookup` and :meth:`rows`.  Both build and append
    route facts through one fold (:meth:`_fold`), so an appended table
    equals a rebuild row for row.
    """

    def __init__(
        self,
        schema: "TemporalMultidimensionalSchema",
        modes: ModeSet,
        mode_labels: Sequence[str],
        max_hops: int,
    ) -> None:
        self._schema = schema
        self._modes = modes
        self._max_hops = max_hops
        self._rows_by_mode: dict[str, list[MVFactRow]] = {
            label: [] for label in modes.labels if label in mode_labels
        }
        self._unmapped: dict[str, list[UnmappedFact]] = {
            label: [] for label in self._rows_by_mode if label != TCM_LABEL
        }
        self._index: dict[
            tuple[tuple[tuple[str, str], ...], Instant, str], MVFactRow
        ] = {}
        # Mapping routes per (member version, structure version, dimension)
        # for the table's life: the mappings cannot change under them,
        # since a stale table refuses appends.
        self._routes: dict[tuple[str, str, str], list[Route]] = {}
        # The schema state this table was inferred from — the *structure
        # version* component of versioned result-cache keys.  Build stamps
        # it and every append restamps it, so it always describes the
        # table's contents; ``is_stale`` compares it against the live
        # schema's current token.
        self.schema_token: int = schema.version_token()
        # The MVCC commit version this table was pinned from, when it was
        # derived through a snapshot cursor (0 for ad-hoc live builds).
        self.snapshot_version: int = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        schema: "TemporalMultidimensionalSchema",
        *,
        horizon: Instant | None = None,
        max_hops: int = 8,
        mode_labels: Sequence[str] | None = None,
    ) -> "MultiVersionFactTable":
        """Infer ``f'`` from the schema (Definition 11): fold every fact
        into an empty table.

        ``mode_labels`` restricts inference to a subset of modes (always
        including any requested version modes; ``tcm`` is cheap and always
        materialized unless explicitly excluded).
        """
        modes = schema.presentation_modes(horizon=horizon)
        wanted = list(modes.labels) if mode_labels is None else list(mode_labels)
        for label in wanted:
            modes.mode(label)  # raise early on unknown labels
        table = cls(schema, modes, wanted, max_hops)
        table._fold(schema.facts)
        return table

    def append_fact(
        self,
        coordinates: Mapping[str, str],
        t: Instant,
        values: Mapping[str, float | None] | None = None,
        *,
        source: str | None = None,
        **value_kwargs: float | None,
    ) -> FactRow:
        """Record one fact on the schema and fold it into every built mode.

        The fact is validated by the schema's ``add_fact``; new cells land
        at their sorted position and the table is restamped, so it stays
        equal to a rebuild and is not stale afterwards.  Raises
        :class:`AppendRefusedError` — before touching the schema — when
        the table is pinned to a snapshot, is already stale, or has a
        measure whose aggregate cannot be folded into (``count``,
        ``avg``).
        """
        if self.snapshot_version:
            raise AppendRefusedError(
                f"table is pinned to snapshot version {self.snapshot_version}; "
                f"append through a writer and read a newer snapshot"
            )
        if self.is_stale():
            raise AppendRefusedError(
                "the schema changed since this table was inferred; rebuild "
                "it with MultiVersionFactTable.build before appending"
            )
        for measure in self._schema.measures:
            if not isinstance(measure.aggregate, _FOLDABLE):
                raise AppendRefusedError(
                    f"appending needs foldable aggregates; measure "
                    f"{measure.name!r} uses {measure.aggregate.name!r} "
                    f"(rebuild with MultiVersionFactTable.build instead)"
                )
        fact = self._schema.add_fact(
            coordinates, t, values, source=source, **value_kwargs
        )
        self._fold((fact,))
        self.schema_token = self._schema.version_token()
        return fact

    def _fold(self, facts: Iterable[FactRow]) -> None:
        """Route ``facts`` into every built mode and fold them into its
        slice.  ``facts`` (iterated once per mode) must follow every fact
        already folded, in the schema's fact order."""
        measures = self._schema.measure_names
        index = self._index
        tcm_rows = self._rows_by_mode.get(TCM_LABEL)
        if tcm_rows is not None:
            for fact in facts:
                row = MVFactRow(
                    coordinates=fact.coordinates,
                    t=fact.t,
                    mode=TCM_LABEL,
                    values={m: fact.value(m) for m in measures},
                    confidences={m: SD for m in measures},
                    provenance=(
                        ("source data",)
                        if fact.source is None
                        else (f"source data [from {fact.source}]",)
                    ),
                )
                tcm_rows.append(row)
                coord_items = tuple(sorted(fact.coordinates.items()))
                index[(coord_items, fact.t, TCM_LABEL)] = row
        for mode in self._modes:
            if mode.label in self._unmapped:  # a built version mode
                self._store(mode.label, self._route(mode, facts))

    def _route(
        self, mode: PresentationMode, facts: Iterable[FactRow]
    ) -> dict[tuple[Instant, tuple[tuple[str, str], ...]], _CellAccumulator]:
        """Route each fact into ``mode``'s structure version: the cells it
        reaches, keyed ``(t, coordinates)``; unroutable facts go to
        :attr:`unmapped`."""
        schema = self._schema
        dimension_ids = schema.dimension_ids
        measures = schema.measure_names
        aggregator = schema.cf_aggregator
        version = mode.version
        assert version is not None
        label = mode.label
        route_cache = self._routes
        unmapped = self._unmapped[label]
        cells: dict[tuple[Instant, tuple[tuple[str, str], ...]], _CellAccumulator] = {}

        for fact in facts:
            routes_per_dim: list[list[Route]] = []
            for did in dimension_ids:
                source = fact.coordinate(did)
                cache_key = (source, version.vsid, did)
                routes = route_cache.get(cache_key)
                if routes is None:
                    routes = route_cache[cache_key] = schema.mappings.routes(
                        source,
                        version.leaf_ids(did),
                        measures=measures,
                        max_hops=self._max_hops,
                    )
                if not routes:
                    unmapped.append(
                        UnmappedFact(
                            fact=fact, mode=label, dimension=did, source=source
                        )
                    )
                    break
                routes_per_dim.append(routes)
            else:
                for combo in itertools.product(*routes_per_dim):
                    coords = {
                        did: route.target for did, route in zip(dimension_ids, combo)
                    }
                    key = (fact.t, tuple(sorted(coords.items())))
                    acc = cells.get(key)
                    if acc is None:
                        acc = cells[key] = _CellAccumulator()
                    values = acc.values
                    confidences = acc.confidences
                    for m in measures:
                        value = fact.value(m)
                        confidence = SD
                        for route in combo:
                            value = route.convert(m, value)
                            confidence = aggregator.combine(
                                confidence, route.confidence(m)
                            )
                        values.append(value)
                        confidences.append(confidence)
                    steps: list[str] = []
                    for route in combo:
                        if route.hops:
                            described = {
                                m: route.maps[m].function.describe() for m in measures
                            }
                            steps.append(
                                f"{route.source} -> {route.target} via {described}"
                            )
                    entry = (
                        "; ".join(steps) if steps else "valid in version (source data)"
                    )
                    if fact.source is not None:
                        entry += f" [from {fact.source}]"
                    acc.provenance.append(entry)
        return cells

    def _store(
        self,
        label: str,
        cells: dict[tuple[Instant, tuple[tuple[str, str], ...]], _CellAccumulator],
    ) -> None:
        """Fold each cell and place its row in ``label``'s slice, which
        stays sorted by ``(t, coordinates)``.

        A cell the slice already holds is seeded with that row's folded
        values, confidences and provenance, and its new row replaces the
        old one.  Folding the seed with the new contributions equals
        folding every contribution from scratch because ``⊗cf`` and the
        ``sum``/``min``/``max`` aggregates are left folds.  A new cell is
        inserted at its position, or appended when filling an empty slice.
        """
        schema = self._schema
        measures = schema.measure_names
        width = len(measures)
        columns = [(i, m, schema.measure(m).aggregate) for i, m in enumerate(measures)]
        aggregator = schema.cf_aggregator
        index = self._index
        rows = self._rows_by_mode[label]
        placed = bool(rows)
        for (t, coord_items), acc in sorted(cells.items()):
            key = (coord_items, t, label)
            seed = index.get(key) if placed else None
            if seed is not None:
                acc.values[:0] = [seed.values[m] for m in measures]
                acc.confidences[:0] = [seed.confidences[m] for m in measures]
                acc.provenance[:0] = seed.provenance
            row = MVFactRow(
                coordinates=dict(coord_items),
                t=t,
                mode=label,
                values={
                    m: agg.combine_all(acc.values[i::width])
                    for i, m, agg in columns
                },
                confidences={
                    m: aggregator.combine_all(acc.confidences[i::width])
                    for i, m, _ in columns
                },
                provenance=tuple(acc.provenance),
            )
            index[key] = row
            if not placed:
                rows.append(row)
                continue
            position = bisect.bisect_left(rows, (t, coord_items), key=_row_order)
            if seed is not None:
                rows[position] = row
            else:
                rows.insert(position, row)

    # -- access ------------------------------------------------------------------

    @property
    def schema(self) -> "TemporalMultidimensionalSchema":
        """The schema this table was inferred from."""
        return self._schema

    @property
    def modes(self) -> ModeSet:
        """The presentation modes (Definition 10)."""
        return self._modes

    def is_stale(self) -> bool:
        """Whether the source schema mutated after this table was built.

        Inference is eager, so any ``add_fact`` / evolution on the live
        schema that did not go through :meth:`append_fact` leaves this
        table describing an older state.  Version-aware readers
        (:class:`~repro.olap.cube.Cube`, the lazy aggregate lattice) call
        this before serving and re-infer when it answers ``True``;
        snapshot-pinned tables are built from immutable clones and are
        never stale.
        """
        return self._schema.version_token() != self.schema_token

    @property
    def unmapped(self) -> list[UnmappedFact]:
        """Facts with no route into some mode (red cells in the §5.2 UI),
        mode by mode in fact order."""
        return [entry for entries in self._unmapped.values() for entry in entries]

    def slice(self, mode_label: str) -> list[MVFactRow]:
        """All rows of one presentation mode."""
        if mode_label not in self._rows_by_mode:
            if mode_label in self._modes:
                return []
            raise QueryError(f"unknown presentation mode {mode_label!r}")
        return list(self._rows_by_mode[mode_label])

    def rows(self) -> Iterator[MVFactRow]:
        """Iterate every materialized row across modes."""
        for mode_rows in self._rows_by_mode.values():
            yield from mode_rows

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._rows_by_mode.values())

    def lookup(
        self, coordinates: Mapping[str, str], t: Instant, mode_label: str
    ) -> MVFactRow | None:
        """The cell at exactly these coordinates/time/mode, if materialized."""
        key = (tuple(sorted(coordinates.items())), t, mode_label)
        return self._index.get(key)

    def cell_count(self) -> dict[str, int]:
        """Number of materialized cells per mode (storage-redundancy bench)."""
        return {label: len(rows) for label, rows in self._rows_by_mode.items()}
