"""Tests for incremental MultiVersion maintenance (``append_fact``).

An appended table must be indistinguishable from a rebuild: the same rows
in the same order with the same provenance, the same unmapped facts, a
fresh structure stamp (so result caches and version-aware readers see
the append), and refusals that leave the schema untouched.
"""

import pytest

from repro.cache import VersionedResultCache
from repro.core import (
    AVG,
    AppendRefusedError,
    Interval,
    LevelGroup,
    Measure,
    MemberVersion,
    ModelError,
    MultiVersionFactTable,
    Query,
    QueryEngine,
    SUM,
    TemporalDimension,
    TemporalMultidimensionalSchema,
    TimeGroup,
    YEAR,
)
from repro.workloads.case_study import (
    ORG,
    build_case_study,
    build_two_measure_case_study,
    fact_instant,
)
from repro.workloads.generator import DIVISION, WorkloadConfig, generate_workload


def snapshot(mvft):
    """A comparable snapshot of a MV table: per-mode cell dictionaries."""
    out = {}
    for label in mvft.modes.labels:
        out[label] = {
            (tuple(sorted(r.coordinates.items())), r.t): (
                {m: r.value(m) for m in r.values},
                {m: c.symbol for m, c in r.confidences.items()},
            )
            for r in mvft.slice(label)
        }
    return out


def fact_stream(schema):
    """The schema's facts as ``append_fact`` arguments, in load order."""
    return [
        (dict(row.coordinates), row.t, dict(row.values), row.source)
        for row in schema.facts
    ]


def assert_equals_rebuild(mvft, schema):
    """Every slice, row order, provenance and unmapped entry of ``mvft``
    equals a from-scratch rebuild, and ``mvft`` is not stale."""
    rebuilt = MultiVersionFactTable.build(schema)
    assert not mvft.is_stale()
    assert mvft.modes.labels == rebuilt.modes.labels
    for label in rebuilt.modes.labels:
        got, want = mvft.slice(label), rebuilt.slice(label)
        assert [repr(r) for r in got] == [repr(r) for r in want], label
        assert [r.provenance for r in got] == [r.provenance for r in want], label
    assert mvft.unmapped == rebuilt.unmapped
    for row in rebuilt.rows():
        assert mvft.lookup(row.coordinates, row.t, row.mode) == row


def queries(mvft, level):
    return [
        Query(mode=label, group_by=(TimeGroup(YEAR), LevelGroup(ORG, level)))
        for label in mvft.modes.labels
    ]


def result_rows(result):
    return result.columns, result.measures, result.mode, result.rows


def append_in_batches(schema, stream, batch, level):
    """Empty ``schema`` of facts, then append ``stream`` back ``batch``
    facts at a time, checking the table and a cached engine opened
    before the first append after every batch."""
    schema.facts.truncate(0)
    mvft = MultiVersionFactTable.build(schema)
    cached = QueryEngine(mvft, cache=VersionedResultCache())
    for query in queries(mvft, level):
        cached.execute(query)  # prime the cache with the empty table
    for start in range(0, len(stream), batch):
        for coordinates, t, values, source in stream[start:start + batch]:
            mvft.append_fact(coordinates, t, values, source=source)
        assert_equals_rebuild(mvft, schema)
        uncached = QueryEngine(mvft)
        for query in queries(mvft, level):
            assert result_rows(cached.execute(query)) == result_rows(
                uncached.execute(query)
            )
    return mvft


class TestEquivalenceToBatchRebuild:
    def test_appends_match_full_rebuild(self):
        """Grow the case study fact by fact (and in batches), tagging
        every fact with an ETL source; after every append the table
        equals a from-scratch rebuild."""
        stream = [
            (coordinates, t, values, f"nightly#{i}")
            for i, (coordinates, t, values, _) in enumerate(
                fact_stream(build_case_study().schema)
            )
        ]
        for batch in (1, 3):
            study = build_case_study(with_facts=False)
            mvft = append_in_batches(study.schema, stream, batch, "Division")
            assert len(mvft.slice("tcm")) == len(stream)
        # Two measures with per-measure mapping functions (Table 12).
        two_measures = fact_stream(build_two_measure_case_study().schema)
        schema = build_two_measure_case_study().schema
        append_in_batches(schema, two_measures, 2, "Division")

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_generated_workloads_match_full_rebuild(self, seed):
        """Generated evolutions (splits, merges, reclassifications,
        transformations, creations and deletions), appended one by one
        and in batches."""
        config = WorkloadConfig(
            seed=seed, n_departments=6, n_years=4, transforms_per_year=1,
            creations_per_year=1, deletions_per_year=1,
        )
        stream = fact_stream(generate_workload(config).schema)
        for batch in (1, 4):
            schema = generate_workload(config).schema
            mvft = append_in_batches(schema, stream, batch, DIVISION)
        assert mvft.unmapped  # deletions strand facts in some mode

    def test_final_state_matches_case_study(self, mvft):
        reference = build_case_study()
        study = build_case_study(with_facts=False)
        grown = MultiVersionFactTable.build(study.schema)
        for row in reference.schema.facts:
            grown.append_fact(
                dict(row.coordinates), row.t, {m: row.value(m) for m in row.values}
            )
        assert snapshot(grown) == snapshot(mvft)
        assert [r.provenance for r in grown.rows()] == [
            r.provenance for r in mvft.rows()
        ]


class TestMergingCells:
    def test_second_fact_merges_into_mapped_cell(self):
        """Two facts at the same instant on Bill and Paul both map onto
        the Jones cell in mode V2 and must fold to their sum."""
        study = build_case_study(with_facts=False)
        mvft = MultiVersionFactTable.build(study.schema)
        t = fact_instant(2003)
        mvft.append_fact({ORG: "bill"}, t, amount=150.0)
        mvft.append_fact({ORG: "paul"}, t, amount=50.0)
        cell = mvft.lookup({ORG: "jones"}, t, "V2")
        assert cell is not None
        assert cell.value("amount") == 200.0
        assert cell.confidence("amount").symbol == "em"
        assert len(cell.provenance) == 2


class TestLifecycle:
    def test_validation_still_enforced(self):
        study = build_case_study(with_facts=False)
        mvft = MultiVersionFactTable.build(study.schema)
        from repro.core import FactValidityError

        with pytest.raises(FactValidityError):
            mvft.append_fact({ORG: "jones"}, fact_instant(2003), amount=1.0)
        assert not mvft.is_stale() and len(mvft) == 0

    def test_unroutable_fact_recorded_as_unmapped(self):
        from repro.core import EvolutionManager

        study = build_case_study(with_facts=False)
        manager = EvolutionManager(study.schema)
        manager.create_member(
            "org", "orphan", "Dpt.Orphan", fact_instant(2003) - 1,
            parents=["sales"], level="Department",
        )
        mvft = MultiVersionFactTable.build(study.schema)
        mvft.append_fact({ORG: "orphan"}, fact_instant(2003), amount=5.0)
        assert any(u.source == "orphan" for u in mvft.unmapped)
        assert_equals_rebuild(mvft, study.schema)

    def test_stale_table_refuses_append_until_rebuilt(self):
        """A fact added behind the table's back makes it stale: an append
        would restamp over a fact it never folded, so it is refused and
        the schema is left as it was; a rebuilt table appends again."""
        study = build_case_study(with_facts=False)
        mvft = MultiVersionFactTable.build(study.schema)
        study.schema.add_fact({ORG: "bill"}, fact_instant(2003), amount=1.0)
        assert mvft.is_stale()
        with pytest.raises(AppendRefusedError, match="rebuild"):
            mvft.append_fact({ORG: "paul"}, fact_instant(2003), amount=2.0)
        assert len(list(study.schema.facts)) == 1
        rebuilt = MultiVersionFactTable.build(study.schema)
        rebuilt.append_fact({ORG: "paul"}, fact_instant(2003), amount=2.0)
        assert_equals_rebuild(rebuilt, study.schema)

    def test_snapshot_pinned_table_refuses_append(self):
        from repro.concurrency import SnapshotManager
        from repro.robustness import TransactionManager

        manager = SnapshotManager(TransactionManager(build_case_study().schema))
        manager.run_write(
            lambda evolution: evolution.create_member(
                ORG, "fresh", "Dpt.Fresh", fact_instant(2004) - 1,
                parents=["sales"], level="Department",
            )
        )
        cursor = manager.open_cursor()
        pinned = cursor.mvft
        assert pinned.snapshot_version != 0
        before = len(list(cursor.schema.facts))
        with pytest.raises(AppendRefusedError, match="snapshot"):
            pinned.append_fact({ORG: "fresh"}, fact_instant(2004), amount=1.0)
        assert len(list(cursor.schema.facts)) == before

    def test_non_foldable_aggregate_rejected(self):
        """``avg`` cannot be folded into a cell: build serves it, append
        refuses it without recording the fact."""
        d = TemporalDimension("org")
        d.add_member(MemberVersion("a", "A", Interval(0)))
        schema = TemporalMultidimensionalSchema(
            [d], [Measure("amount", SUM), Measure("mean", AVG)]
        )
        schema.add_fact({"org": "a"}, 5, amount=1.0, mean=2.0)
        mvft = MultiVersionFactTable.build(schema)
        assert mvft.slice("tcm")[0].value("mean") == 2.0
        with pytest.raises(ModelError) as refused:
            mvft.append_fact({"org": "a"}, 6, amount=1.0, mean=4.0)
        assert isinstance(refused.value, AppendRefusedError)
        assert len(list(schema.facts)) == 1 and not mvft.is_stale()


class TestDeltaReconstructionProperty:
    """Hypothesis: delta-store reconstruction equals the full table on
    random full-mix workloads."""

    def test_random_workloads(self):
        from hypothesis import given, settings, strategies as st
        from repro.warehouse import DeltaMultiVersionStore
        from repro.workloads.generator import WorkloadConfig, generate_workload

        @settings(max_examples=10, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=10_000))
        def check(seed):
            wl = generate_workload(
                WorkloadConfig(
                    seed=seed, n_years=3, n_departments=7,
                    transforms_per_year=1, deletions_per_year=1,
                )
            )
            mvft = wl.schema.multiversion_facts()
            delta = DeltaMultiVersionStore(mvft)
            for label in mvft.modes.labels:
                assert snapshot_mode(mvft, label) == snapshot_mode_rows(
                    delta.slice(label)
                )

        def snapshot_mode(mvft, label):
            return snapshot_mode_rows(mvft.slice(label))

        def snapshot_mode_rows(rows):
            return {
                (tuple(sorted(r.coordinates.items())), r.t): (
                    dict(r.values),
                    {m: c.symbol for m, c in r.confidences.items()},
                )
                for r in rows
            }

        check()
