"""Incremental MV maintenance vs full rebuild — the load-path ablation.

Appending a batch of facts one by one through
``MultiVersionFactTable.append_fact`` should beat rebuilding the whole
MultiVersion fact table after the batch, and the two must agree cell for
cell (asserted in the test suite; spot checked here).
"""

import pytest

from repro.core import MultiVersionFactTable
from repro.workloads.case_study import build_case_study


def fact_stream():
    reference = build_case_study()
    return [
        (dict(row.coordinates), row.t, {m: row.value(m) for m in row.values})
        for row in reference.schema.facts
    ]


def test_bench_incremental_appends(benchmark):
    stream = fact_stream()

    def run():
        study = build_case_study(with_facts=False)
        mvft = MultiVersionFactTable.build(study.schema)  # initial (empty) build
        for coordinates, t, values in stream:
            mvft.append_fact(coordinates, t, values)
        return mvft

    mvft = benchmark(run)
    assert len(mvft.slice("tcm")) == len(stream)


def test_bench_rebuild_per_batch(benchmark):
    """The naive alternative: reload facts, rebuild the table."""
    stream = fact_stream()

    def run():
        study = build_case_study(with_facts=False)
        for coordinates, t, values in stream:
            study.schema.add_fact(coordinates, t, values)
        return MultiVersionFactTable.build(study.schema)

    mvft = benchmark(run)
    assert len(mvft.slice("tcm")) == len(stream)


def test_bench_per_fact_rebuild(benchmark):
    """Rebuilding after *every* fact — what the incremental path avoids."""
    stream = fact_stream()

    def run():
        study = build_case_study(with_facts=False)
        mvft = None
        for coordinates, t, values in stream:
            study.schema.add_fact(coordinates, t, values)
            mvft = MultiVersionFactTable.build(study.schema)
        return mvft

    mvft = benchmark.pedantic(run, rounds=3, iterations=1)
    assert mvft is not None and len(mvft.slice("tcm")) == len(stream)
