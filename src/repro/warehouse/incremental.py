"""Incremental maintenance of the MultiVersion fact table.

Data warehouses load continuously; rebuilding the whole MultiVersion fact
table (Definition 11) on every batch is wasteful because *appending a
fact never changes the structure versions* — only dimension evolutions
do.  :class:`IncrementalMultiVersion` therefore:

* builds the table once,
* folds each appended fact into the affected cells of every mode (routing
  it exactly like the batch builder, reusing a route cache),
* rebuilds from scratch only when the caller signals a structural change
  (:meth:`invalidate`).

Folding a contribution into an existing cell is only sound for
*associative* measure aggregates whose fold over ``[a, b, c]`` equals the
fold over ``[fold([a, b]), c]`` — sum, min and max qualify; count and avg
do not (a count of counts is not a count).  Measures with non-foldable
aggregates are rejected at construction.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.chronology import Instant
from repro.core.confidence import SD
from repro.core.errors import ModelError
from repro.core.facts import MAX, MIN, SUM, FactRow
from repro.core.multiversion import MVFactRow, MultiVersionFactTable, UnmappedFact
from repro.core.schema import TemporalMultidimensionalSchema

__all__ = ["IncrementalMultiVersion"]

_FOLDABLE = (type(SUM), type(MIN), type(MAX))


class IncrementalMultiVersion:
    """A MultiVersion fact table kept current under fact appends."""

    def __init__(
        self,
        schema: TemporalMultidimensionalSchema,
        *,
        max_hops: int = 8,
    ) -> None:
        for measure in schema.measures:
            if not isinstance(measure.aggregate, _FOLDABLE):
                raise ModelError(
                    f"incremental maintenance needs a foldable aggregate; "
                    f"measure {measure.name!r} uses "
                    f"{measure.aggregate.name!r} (rebuild in batch instead)"
                )
        self.schema = schema
        self.max_hops = max_hops
        self._mvft: MultiVersionFactTable | None = None
        self._route_cache: dict = {}

    # -- access -------------------------------------------------------------------

    @property
    def mvft(self) -> MultiVersionFactTable:
        """The current table (built lazily, updated incrementally)."""
        if self._mvft is None:
            self._mvft = MultiVersionFactTable.build(
                self.schema, max_hops=self.max_hops
            )
        return self._mvft

    def invalidate(self) -> None:
        """Signal a *structural* change (evolution operators applied):
        the next access rebuilds from scratch."""
        self._mvft = None
        self._route_cache = {}

    # -- appends ---------------------------------------------------------------------

    def append_fact(
        self,
        coordinates: Mapping[str, str],
        t: Instant,
        values: Mapping[str, float | None] | None = None,
        **value_kwargs: float | None,
    ) -> FactRow:
        """Validate, record and fold one new fact into every mode."""
        mvft = self.mvft  # ensure built before the schema grows
        fact = self.schema.add_fact(coordinates, t, values, **value_kwargs)
        self._fold_tcm(mvft, fact)
        for mode in mvft.modes.version_modes:
            self._fold_mode(mvft, mode.label, fact)
        return fact

    # -- folding ----------------------------------------------------------------------

    def _fold_tcm(self, mvft: MultiVersionFactTable, fact: FactRow) -> None:
        measures = self.schema.measure_names
        row = MVFactRow(
            coordinates=dict(fact.coordinates),
            t=fact.t,
            mode="tcm",
            values={m: fact.value(m) for m in measures},
            confidences={m: SD for m in measures},
            provenance=("source data",),
        )
        self._store(mvft, "tcm", row)

    def _fold_mode(
        self, mvft: MultiVersionFactTable, label: str, fact: FactRow
    ) -> None:
        import itertools

        mode = mvft.modes.mode(label)
        version = mode.version
        assert version is not None
        measures = self.schema.measure_names
        aggregator = self.schema.cf_aggregator
        routes_per_dim = []
        for did in self.schema.dimension_ids:
            source = fact.coordinate(did)
            cache_key = (source, version.vsid, did)
            if cache_key not in self._route_cache:
                self._route_cache[cache_key] = self.schema.mappings.routes(
                    source,
                    version.leaf_ids(did),
                    measures=measures,
                    max_hops=self.max_hops,
                )
            routes = self._route_cache[cache_key]
            if not routes:
                mvft._unmapped.append(
                    UnmappedFact(fact=fact, mode=label, dimension=did, source=source)
                )
                return
            routes_per_dim.append(routes)

        for combo in itertools.product(*routes_per_dim):
            coords = {
                did: route.target
                for did, route in zip(self.schema.dimension_ids, combo)
            }
            values: dict[str, float | None] = {}
            confidences = {}
            for m in measures:
                value = fact.value(m)
                confidence = SD
                for route in combo:
                    value = route.convert(m, value)
                    confidence = aggregator.combine(confidence, route.confidence(m))
                values[m] = value
                confidences[m] = confidence
            provenance = tuple(
                f"{route.source} -> {route.target}" for route in combo if route.hops
            ) or ("valid in version (source data)",)
            row = MVFactRow(
                coordinates=coords,
                t=fact.t,
                mode=label,
                values=values,
                confidences=confidences,
                provenance=provenance,
            )
            self._store(mvft, label, row)

    def _store(
        self, mvft: MultiVersionFactTable, label: str, contribution: MVFactRow
    ) -> None:
        """Fold a contribution into the live table's cell (or create it)."""
        key = (
            tuple(sorted(contribution.coordinates.items())),
            contribution.t,
            label,
        )
        existing = mvft._index.get(key)
        if existing is None:
            mvft._rows_by_mode.setdefault(label, []).append(contribution)
            mvft._index[key] = contribution
            return
        measures = self.schema.measure_names
        merged_values: dict[str, float | None] = {}
        merged_confidences = {}
        for m in measures:
            agg = self.schema.measure(m).aggregate
            merged_values[m] = agg.combine_all(
                [existing.value(m), contribution.value(m)]
            )
            merged_confidences[m] = self.schema.cf_aggregator.combine(
                existing.confidence(m), contribution.confidence(m)
            )
        merged = MVFactRow(
            coordinates=dict(existing.coordinates),
            t=existing.t,
            mode=label,
            values=merged_values,
            confidences=merged_confidences,
            provenance=existing.provenance + contribution.provenance,
        )
        rows = mvft._rows_by_mode[label]
        for i, row in enumerate(rows):
            if row is existing:
                rows[i] = merged
                break
        mvft._index[key] = merged
