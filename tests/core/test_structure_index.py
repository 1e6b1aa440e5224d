"""Structure indexes agree with a fresh ``D(t)``, and reads stop slicing.

The index of a (structure version, dimension) pair must hold exactly what
``TemporalDimension.at`` would compute — levels, leaves, attributes and
each member's ancestors at every level — both for the version itself and
for the temporally consistent mode, which reuses the index of the version
containing each fact instant (Definition 9).  Query results built on the
indexes must equal the Definition 12 recursion of ``DataAggregator``,
which still slices ``D(t)`` itself.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.concurrency import SnapshotManager
from repro.core import (
    DataAggregator,
    Interval,
    LevelGroup,
    MemberVersion,
    Query,
    QueryEngine,
    TemporalDimension,
    TimeGroup,
    YEAR,
)
from repro.mvql import MVQLCompileError, MVQLSession
from repro.robustness import TransactionManager
from repro.workloads import WorkloadConfig, generate_workload
from repro.workloads.case_study import build_case_study
from repro.workloads.generator import (
    TwoDimWorkloadConfig,
    generate_two_dim_workload,
)

SEEDS = (3, 11, 29)


def evolving_schema(seed):
    """A small generated workload with every evolution kind, plus member
    attributes so attribute resolution has something to disagree on."""
    workload = generate_workload(
        WorkloadConfig(
            seed=seed,
            n_divisions=3,
            n_departments=10,
            n_years=5,
            transforms_per_year=1,
            creations_per_year=1,
            deletions_per_year=1,
            facts_per_department_per_year=2,
        )
    )
    org = workload.org
    for mvid, mv in org.members.items():
        org.replace_member(
            replace(mv, attributes={"band": f"b{sum(map(ord, mvid)) % 3}"})
        )
    return workload.schema


def names_at(snap, level, mvid):
    """The oracle for one ancestors-at-level lookup, straight off ``D(t)``."""
    at_level = set(snap.levels()[level])
    hits = sorted(({mvid} | snap.ancestors(mvid)) & at_level)
    return tuple(snap.member(h).name for h in hits) if hits else (None,)


def assert_index_matches(index, snap):
    assert dict(index.levels) == {k: tuple(v) for k, v in snap.levels().items()}
    assert index.leaves == frozenset(snap.leaves())
    assert set(index.snapshot.members) == set(snap.members)
    for mvid, mv in snap.members.items():
        assert dict(index.snapshot.member(mvid).attributes) == dict(mv.attributes)
        for name in mv.attributes:
            assert index.attribute(mvid, name) == mv.attributes[name]
    for level in snap.levels():
        table = index.names_at_level(level)
        for mvid in snap.members:
            assert table[mvid] == names_at(snap, level, mvid)


@pytest.fixture(scope="module", params=SEEDS)
def schema(request):
    return evolving_schema(request.param)


@pytest.fixture(scope="module")
def mvft(schema):
    return schema.multiversion_facts()


class TestIndexEqualsFreshSnapshot:
    def test_every_version(self, mvft):
        for mode in mvft.modes.version_modes:
            version = mode.version
            for did in mvft.schema.dimension_ids:
                fresh = version.dimension(did).at(version.valid_time.start)
                assert_index_matches(version.index(did), fresh)

    def test_tcm_at_every_fact_instant(self, schema, mvft):
        instants = sorted({row.t for row in schema.facts})
        for t in instants:
            version = mvft.modes.version_at(t)
            assert version is not None, f"no structure version covers {t}"
            for did in schema.dimension_ids:
                assert_index_matches(version.index(did), schema.dimension(did).at(t))

    def test_two_dimension_workload(self):
        schema = generate_two_dim_workload(TwoDimWorkloadConfig(seed=5)).schema
        modes = schema.presentation_modes()
        for t in sorted({row.t for row in schema.facts}):
            version = modes.version_at(t)
            for did in schema.dimension_ids:
                assert_index_matches(version.index(did), schema.dimension(did).at(t))

    def test_instants_outside_every_version(self, mvft):
        first = mvft.modes.version_modes[0].version.valid_time.start
        assert mvft.modes.version_at(first - 1) is None


class TestEngineEqualsDefinition12:
    """Grouped engine results equal the recursive aggregator cell by cell,
    values compared by ``repr`` so a differing fold order would show."""

    def test_every_mode_level_and_instant(self, schema, mvft):
        engine = QueryEngine(mvft)
        aggregator = DataAggregator(mvft)
        instants = sorted({row.t for row in schema.facts})
        compared = 0
        for mode in mvft.modes:
            for t in instants:
                if mode.is_tcm:
                    snap = schema.dimension("org").at(t)
                else:
                    version = mode.version
                    snap = version.dimension("org").at(version.valid_time.start)
                for level, members in snap.levels().items():
                    expected = {}
                    for mvid in members:
                        value, cf = aggregator.value(
                            mode.label, {"org": mvid}, t, "amount"
                        )
                        if cf is not None:
                            name = snap.member(mvid).name
                            assert name not in expected, "ambiguous level name"
                            expected[name] = (repr(value), cf.symbol)
                    result = engine.execute(
                        Query(
                            mode=mode.label,
                            group_by=(TimeGroup(YEAR), LevelGroup("org", level)),
                            time_range=Interval(t, t),
                        )
                    )
                    got = {
                        row.group[1]: (
                            repr(row.value("amount")),
                            row.confidence("amount").symbol,
                        )
                        for row in result
                        if row.group[1] is not None
                    }
                    assert got == expected, (mode.label, t, level)
                    compared += len(got)
        assert compared > 0


class TestConcurrentFirstBuild:
    def test_eight_threads_race_the_first_build(self):
        # Modes without inference: nothing has touched the indexes yet.
        modes = evolving_schema(SEEDS[0]).presentation_modes()
        versions = [m.version for m in modes.version_modes]
        barrier = threading.Barrier(8, timeout=30)

        def resolve(_):
            barrier.wait()
            out = []
            for version in versions:
                index = version.index("org")
                tables = {
                    level: dict(index.names_at_level(level))
                    for level in index.levels
                }
                out.append((index, tables))
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                answers = [f.result(timeout=60) for f in
                           [pool.submit(resolve, i) for i in range(8)]]
        finally:
            sys.setswitchinterval(interval)
        assert len(versions) > 1
        for answer in answers:
            # one build per version: every thread holds the same index
            assert all(a is b for (a, _), (b, _) in zip(answer, answers[0]))
            assert [t for _, t in answer] == [t for _, t in answers[0]]


class TestTokenKeying:
    def test_mutated_restriction_is_reindexed(self, schema):
        mvft = schema.multiversion_facts()
        version = mvft.modes.version_modes[0].version
        before = version.index("org")
        assert version.index("org") is before
        version.dimension("org").add_member(
            MemberVersion("zz-root", "ZZ", Interval(version.valid_time.start),
                          level="Region")
        )
        after = version.index("org")
        assert after is not before
        assert "Region" in after.levels and "Region" not in before.levels

    def test_live_mutation_then_reinference_serves_new_levels(self):
        schema = evolving_schema(SEEDS[1])
        old = MVQLSession(schema.multiversion_facts())
        assert "Region" not in old.execute("SHOW LEVELS org")
        last = max(row.t for row in schema.facts)
        schema.dimension("org").add_member(
            MemberVersion("region0", "REGION0", Interval(last + 1), level="Region")
        )
        fresh = MVQLSession(schema.multiversion_facts())
        assert "Region" in fresh.execute("SHOW LEVELS org")
        newest = fresh.mvft.modes.labels[-1]
        result = fresh.execute(f"SELECT amount BY year, org.Region IN MODE {newest}")
        assert {row.group[1] for row in result} == {None}  # nothing rolls up yet
        with pytest.raises(MVQLCompileError):
            old.execute(f"SELECT amount BY year, org.Region IN MODE {newest}")


class TestReadsDoNotSlice:
    """Once warm, reads resolve structure from indexes only: zero
    ``TemporalDimension.at`` calls."""

    WARM = [
        "SELECT amount BY year, org.Division",
        "SELECT amount BY year, org.Department IN MODE V1",
        "SELECT amount BY year, org.Division WHERE org.Division IN (Sales)",
    ]

    @pytest.fixture()
    def cursor(self):
        manager = SnapshotManager(TransactionManager(build_case_study().schema))
        cursor = manager.open_cursor()
        session = MVQLSession.from_cursor(cursor)
        for text in self.WARM:
            session.execute(text)
        session.execute("SHOW LEVELS org")
        return cursor

    @pytest.fixture()
    def at_calls(self, monkeypatch):
        calls = []
        original = TemporalDimension.at

        def counting(dim, t):
            calls.append((dim.did, t))
            return original(dim, t)

        monkeypatch.setattr(TemporalDimension, "at", counting)
        return calls

    def test_repeated_cached_select(self, cursor, at_calls):
        session = MVQLSession.from_cursor(cursor)
        session.execute(self.WARM[0])
        session.execute(self.WARM[1])
        assert at_calls == []

    def test_filtered_select(self, cursor, at_calls):
        session = MVQLSession.from_cursor(cursor)
        session.execute(self.WARM[2])
        # a filter never executed before: a cache miss, resolved in tcm
        session.execute(
            "SELECT amount BY quarter, org.Department WHERE org.Division IN (R&D)"
        )
        assert at_calls == []

    def test_show_levels(self, cursor, at_calls):
        assert "Division" in MVQLSession.from_cursor(cursor).execute("SHOW LEVELS org")
        assert at_calls == []

    def test_new_session_over_the_same_cursor(self, cursor, at_calls):
        first = MVQLSession.from_cursor(cursor).execute(self.WARM[0])
        second = MVQLSession.from_cursor(cursor).execute(self.WARM[0])
        assert second.to_text() == first.to_text()
        assert at_calls == []
