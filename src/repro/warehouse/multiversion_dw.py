"""The MultiVersion Data Warehouse (§5.1, second store).

The 'temporal mode of presentation' dimension has been proceeded and the
MultiVersion fact table has been inferred from the temporally consistent
fact table and the mapping relationships.  On the relational engine:

* ``dim_tmp`` — the flat TMP dimension (§4.1);
* one star dimension table per temporal dimension (per structure version,
  hierarchy denormalized into level columns);
* ``mv_fact`` — the MultiVersion fact table with one column per dimension,
  the time coordinate, the mode, one column per measure, and one
  ``cf_<measure>`` column per measure carrying the §5.2 confidence codes
  (confidence as a measure, §4.1).

This is the **full-replication** layout the prototype used — "we have to
duplicate the values in all versions", which "obviously implies a high
level of useless redundancies"; :mod:`repro.warehouse.delta` is the
differences-only storage the paper sketches as the fix, and the storage
benchmark compares the two.
"""

from __future__ import annotations

from typing import Any

from repro.core.confidence import CANONICAL_FACTORS
from repro.core.errors import ModelError
from repro.core.multiversion import MultiVersionFactTable
from repro.logical.cf_measures import cf_column, decode_confidence, encode_confidence
from repro.logical.parent_child import lower_parent_child
from repro.logical.snowflake import (
    lower_snowflake,
    snowflake_edge_table,
    snowflake_level_table,
)
from repro.logical.star import level_column, lower_star, star_table_name
from repro.logical.tmp_dimension import build_tmp_dimension
from repro.storage import Column, Database, FLOAT, INTEGER, Q, TEXT

__all__ = ["MV_FACT_TABLE", "MultiVersionDataWarehouse"]

MV_FACT_TABLE = "mv_fact"
"""Canonical name of the MultiVersion fact table."""


class MultiVersionDataWarehouse:
    """The relational MultiVersion warehouse, queryable without the
    conceptual layer (as a commercial OLAP server would see it)."""

    def __init__(self, mvft: MultiVersionFactTable, db: Database) -> None:
        self.mvft = mvft
        self.schema = mvft.schema
        self.db = db

    @classmethod
    def build(
        cls,
        mvft: MultiVersionFactTable,
        *,
        layouts: tuple[str, ...] = ("star",),
    ) -> "MultiVersionDataWarehouse":
        """Materialize a MultiVersion fact table into relational form.

        ``layouts`` picks the §5.1 dimension storage structures to lower:
        ``"star"`` (denormalized, default), ``"snowflake"`` (normalized
        level tables + rollup edges — the only relational layout that
        represents multiple hierarchies faithfully) and ``"parent_child"``
        (single-parent only; raises on multi-hierarchies, per §5.1).
        """
        unknown = set(layouts) - {"star", "snowflake", "parent_child"}
        if unknown:
            raise ModelError(f"unknown dimension layouts {sorted(unknown)}")
        schema = mvft.schema
        db = Database("multiversion_dw")
        build_tmp_dimension(db, mvft.modes)
        versions = [
            mode.version for mode in mvft.modes.version_modes if mode.version
        ]
        for did in schema.dimension_ids:
            if "star" in layouts:
                lower_star(db, schema, versions, did)
            if "snowflake" in layouts:
                lower_snowflake(db, schema, versions, did)
            if "parent_child" in layouts:
                lower_parent_child(db, schema, versions, did)

        fact_columns: list[Column] = [Column("mode", TEXT)]
        fact_columns.extend(Column(did, TEXT) for did in schema.dimension_ids)
        fact_columns.append(Column("t", INTEGER))
        for m in schema.measure_names:
            fact_columns.append(Column(m, FLOAT, nullable=True))
            fact_columns.append(Column(cf_column(m), INTEGER))
        fact = db.create_table(
            MV_FACT_TABLE,
            fact_columns,
            primary_key=["mode", *schema.dimension_ids, "t"],
        )
        for row in mvft.rows():
            record: dict[str, Any] = {"mode": row.mode, "t": row.t}
            for did in schema.dimension_ids:
                record[did] = row.coordinates[did]
            for m in schema.measure_names:
                record[m] = row.value(m)
                record[cf_column(m)] = encode_confidence(row.confidence(m))
            fact.insert(record)
        fact.create_index(["mode"])
        return cls(mvft, db)

    @classmethod
    def from_cursor(
        cls, cursor, *, layouts: tuple[str, ...] = ("star",)
    ) -> "MultiVersionDataWarehouse":
        """Materialize the warehouse from a pinned snapshot version.

        ``cursor`` is a :class:`~repro.concurrency.cursor.SnapshotCursor`;
        the relational build reads the cursor's MultiVersion fact table,
        so an evolution transaction committing mid-build cannot produce a
        warehouse that mixes structure versions.
        """
        return cls.build(cursor.mvft, layouts=layouts)

    # -- relational querying -----------------------------------------------------------

    def _vsid_for(self, mode: str, t: int) -> str | None:
        """The structure version whose star rows describe ``(mode, t)``:
        the mode's own version, or — for ``tcm`` — the version covering
        the fact's own time."""
        if mode != "tcm":
            return mode
        version = self.mvft.modes.version_at(t)
        return None if version is None else version.vsid

    def query_level_totals(
        self,
        mode: str,
        did: str,
        level: str,
        measure: str,
        *,
        year_of: Any = None,
    ) -> list[dict[str, Any]]:
        """Total ``measure`` per (year, level member) in one mode — the
        relational twin of the paper's Q1/Q2, evaluated purely on the
        star tables with the query pipeline.

        ``year_of`` converts the ``t`` column to a year label (defaults to
        month-chronon semantics).
        """
        from repro.core.chronology import year_of as default_year_of

        year_fn = year_of or default_year_of
        star = self.db.table(star_table_name(did))
        star_rows = list(star.rows())
        fact_rows = [r for r in self.db.table(MV_FACT_TABLE).rows() if r["mode"] == mode]
        joined: list[dict[str, Any]] = []
        col = level_column(level)
        star_index: dict[tuple[str, str], dict[str, Any]] = {
            (r["vsid"], r["member"]): r for r in star_rows
        }
        for fr in fact_rows:
            vsid = self._vsid_for(mode, fr["t"])
            if vsid is None:
                continue
            sr = star_index.get((vsid, fr[did]))
            if sr is None:
                continue
            label = sr[col] if sr[col] is not None else sr["name"]
            # The §5.2 codes (3=sd, 2=em, 1=am, 4=uk) are not monotone in
            # reliability, so folding ⊗cf relationally goes through the
            # factor's rank (0 best .. 3 worst) and decodes afterwards.
            joined.append(
                {
                    "year": year_fn(fr["t"]),
                    "label": label,
                    measure: fr[measure],
                    "cf_rank": decode_confidence(fr[cf_column(measure)]).rank,
                }
            )
        grouped = (
            Q(joined)
            .group_by(
                ["year", "label"],
                aggregates={
                    "total": ("sum", measure),
                    "worst_rank": ("max", "cf_rank"),
                },
            )
            .order_by(["year", "label"])
            .rows()
        )
        rank_to_code = {f.rank: f.code for f in CANONICAL_FACTORS}
        for row in grouped:
            row["confidence"] = rank_to_code[row.pop("worst_rank")]
        return grouped

    def query_level_totals_snowflake(
        self,
        mode: str,
        did: str,
        level: str,
        measure: str,
        *,
        year_of: Any = None,
    ) -> list[dict[str, Any]]:
        """The same grouped total computed over the *snowflake* layout.

        Walks the normalized rollup-edge table to the ancestors at
        ``level``; a leaf with several ancestors at the level contributes
        to each — faithful multi-hierarchy semantics the denormalized star
        cannot express (it concatenates labels instead).  Requires the
        warehouse to have been built with ``layouts`` including
        ``"snowflake"``.
        """
        from repro.core.chronology import year_of as default_year_of

        edge_name = snowflake_edge_table(did)
        level_name = snowflake_level_table(did, level)
        if edge_name not in self.db or level_name not in self.db:
            raise ModelError(
                f"snowflake layout for {did!r}/{level!r} is not materialized; "
                f"build the warehouse with layouts=('snowflake', ...)"
            )
        year_fn = year_of or default_year_of
        parents: dict[tuple[str, str], list[str]] = {}
        for edge in self.db.table(edge_name).rows():
            parents.setdefault((edge["vsid"], edge["child"]), []).append(
                edge["parent"]
            )
        level_names: dict[tuple[str, str], str] = {
            (r["vsid"], r["member"]): r["name"]
            for r in self.db.table(level_name).rows()
        }

        def labels_for(vsid: str, leaf: str) -> list[str]:
            seen, stack, hits = {leaf}, [leaf], []
            while stack:
                node = stack.pop()
                name = level_names.get((vsid, node))
                if name is not None:
                    hits.append(name)
                    continue  # a path stops at the first hit at the level
                for parent in parents.get((vsid, node), ()):
                    if parent not in seen:
                        seen.add(parent)
                        stack.append(parent)
            return hits

        joined: list[dict[str, Any]] = []
        for fr in self.db.table(MV_FACT_TABLE).rows():
            if fr["mode"] != mode:
                continue
            vsid = self._vsid_for(mode, fr["t"])
            if vsid is None:
                continue
            for label in labels_for(vsid, fr[did]):
                joined.append(
                    {
                        "year": year_fn(fr["t"]),
                        "label": label,
                        measure: fr[measure],
                        "cf_rank": decode_confidence(fr[cf_column(measure)]).rank,
                    }
                )
        grouped = (
            Q(joined)
            .group_by(
                ["year", "label"],
                aggregates={
                    "total": ("sum", measure),
                    "worst_rank": ("max", "cf_rank"),
                },
            )
            .order_by(["year", "label"])
            .rows()
        )
        rank_to_code = {f.rank: f.code for f in CANONICAL_FACTORS}
        for row in grouped:
            row["confidence"] = rank_to_code[row.pop("worst_rank")]
        return grouped

    def storage_cells(self) -> int:
        """Materialized MV fact rows — the redundancy probe."""
        return len(self.db.table(MV_FACT_TABLE))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiVersionDataWarehouse({self.db.row_counts()})"
