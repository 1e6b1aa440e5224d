"""The §5 physical architecture: ETL → Temporal DW → MultiVersion DW.

* :mod:`~repro.warehouse.etl` — extraction, cleaning, transformation and
  validated loading into a TMD schema (Figure 1's first tier);
* :mod:`~repro.warehouse.temporal_dw` — the Temporal Data Warehouse:
  consistent data plus metadata, on the relational engine;
* :mod:`~repro.warehouse.mapping_table` — the Table 12 mapping-relations
  metadata;
* :mod:`~repro.warehouse.multiversion_dw` — the MultiVersion Data
  Warehouse (full replication, as the prototype);
* :mod:`~repro.warehouse.delta` — the differences-only storage the paper
  sketches against the replication redundancy;
* :mod:`~repro.warehouse.metadata` — user-facing member/evolution
  metadata.

Incremental maintenance under fact appends is
:meth:`repro.core.MultiVersionFactTable.append_fact`.
"""

from .delta import DeltaMultiVersionStore
from .etl import (
    CleaningRule,
    ETLPipeline,
    FactMapping,
    LoadReport,
    OperationalSource,
    RawRecord,
)
from .mapping_table import (
    MAPPING_TABLE,
    build_mapping_table,
    k_column,
    k_inv_column,
    mapping_relations_extract,
)
from .metadata import describe_evolutions, member_history, member_version_metadata
from .multiversion_dw import MV_FACT_TABLE, MultiVersionDataWarehouse
from .temporal_dw import TemporalDataWarehouse

__all__ = [
    "OperationalSource",
    "CleaningRule",
    "FactMapping",
    "ETLPipeline",
    "LoadReport",
    "RawRecord",
    "TemporalDataWarehouse",
    "MultiVersionDataWarehouse",
    "MV_FACT_TABLE",
    "DeltaMultiVersionStore",
    "MAPPING_TABLE",
    "build_mapping_table",
    "mapping_relations_extract",
    "k_column",
    "k_inv_column",
    "member_version_metadata",
    "member_history",
    "describe_evolutions",
]
