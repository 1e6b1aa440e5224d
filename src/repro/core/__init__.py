"""The temporal multidimensional model — the paper's primary contribution.

This package implements §3 (conceptual model), the §3.2 evolution operators
and the query/quality machinery of §5.2 on top of them:

* :mod:`~repro.core.chronology` — instants, ``NOW``, valid-time intervals;
* :mod:`~repro.core.member`, :mod:`~repro.core.relationship`,
  :mod:`~repro.core.dimension` — member versions, temporal relationships and
  temporal dimensions (Definitions 1-4);
* :mod:`~repro.core.confidence`, :mod:`~repro.core.mapping` — confidence
  factors and mapping relationships (Definitions 6-7);
* :mod:`~repro.core.facts`, :mod:`~repro.core.schema` — the temporally
  consistent fact table and the TMD schema (Definitions 5, 8);
* :mod:`~repro.core.versions`, :mod:`~repro.core.presentation`,
  :mod:`~repro.core.multiversion`, :mod:`~repro.core.aggregation` —
  structure versions, temporal modes of presentation, the MultiVersion fact
  table and cube aggregation (Definitions 9-12);
* :mod:`~repro.core.operators`, :mod:`~repro.core.operations` — the four
  basic operators and the simple/complex evolution operations (Table 11);
* :mod:`~repro.core.query`, :mod:`~repro.core.quality` — the multiversion
  query engine and the §5.2 quality factor.
"""

from .chronology import (
    INSTANT,
    MONTH,
    NOW,
    QUARTER,
    YEAR,
    Granularity,
    Instant,
    Interval,
    NowType,
    month_interval,
    ym,
    ym_str,
    year_interval,
    year_of,
)
from .confidence import (
    AM,
    CANONICAL_FACTORS,
    DEFAULT_AGGREGATOR,
    EM,
    SD,
    UK,
    ConfidenceAggregator,
    ConfidenceFactor,
    QuantitativeAggregator,
    TruthTableAggregator,
    factor_from_code,
)
from .dimension import DimensionSnapshot, TemporalDimension
from .errors import (
    AppendRefusedError,
    ChronologyError,
    ConfidenceError,
    CyclicHierarchyError,
    DuplicateMemberVersionError,
    FactError,
    FactValidityError,
    InvalidIntervalError,
    InvalidRelationshipError,
    MappingError,
    ModelError,
    OperatorError,
    QualityError,
    QueryError,
    ReproError,
    UnknownDimensionError,
    UnknownMemberVersionError,
)
from .facts import (
    AVG,
    COUNT,
    MAX,
    MIN,
    SUM,
    AggregateFunction,
    FactRow,
    Measure,
    TemporallyConsistentFactTable,
)
from .mapping import (
    CallableMapping,
    ComposedMapping,
    IdentityMapping,
    LinearMapping,
    MappingCatalog,
    MappingFunction,
    MappingRelationship,
    MeasureMap,
    Route,
    UnknownMapping,
    identity_maps,
    linear_maps,
    unknown_maps,
)
from .member import MemberVersion
from .multiversion import MVFactRow, MultiVersionFactTable, UnmappedFact
from .operations import EvolutionManager, OperationResult
from .operators import OperatorRecord, SchemaEditor
from .aggregation import DataAggregator
from .audit import AuditReport, Finding, audit_schema
from .presentation import TCM_LABEL, ModeSet, PresentationMode, build_modes
from .quality import DEFAULT_WEIGHTS, quality_factor, rank_modes
from .query import (
    AttributeGroup,
    LevelFilter,
    LevelGroup,
    Query,
    QueryEngine,
    ResultCell,
    ResultRow,
    ResultTable,
    TimeGroup,
)
from .relationship import TemporalRelationship, validate_relationship
from .serialization import (
    SerializationError,
    load_schema,
    save_schema,
    schema_from_dict,
    schema_to_dict,
)
from .schema import TemporalMultidimensionalSchema
from .versions import StructureVersion, infer_structure_versions

__all__ = [
    # chronology
    "Instant",
    "Interval",
    "NOW",
    "NowType",
    "Granularity",
    "YEAR",
    "QUARTER",
    "MONTH",
    "INSTANT",
    "ym",
    "ym_str",
    "year_of",
    "year_interval",
    "month_interval",
    # confidence
    "ConfidenceFactor",
    "ConfidenceAggregator",
    "TruthTableAggregator",
    "QuantitativeAggregator",
    "SD",
    "EM",
    "AM",
    "UK",
    "CANONICAL_FACTORS",
    "DEFAULT_AGGREGATOR",
    "factor_from_code",
    # entities
    "MemberVersion",
    "TemporalRelationship",
    "validate_relationship",
    "TemporalDimension",
    "DimensionSnapshot",
    # mapping
    "MappingFunction",
    "LinearMapping",
    "IdentityMapping",
    "UnknownMapping",
    "CallableMapping",
    "ComposedMapping",
    "MeasureMap",
    "MappingRelationship",
    "MappingCatalog",
    "Route",
    "identity_maps",
    "linear_maps",
    "unknown_maps",
    # facts & schema
    "AggregateFunction",
    "SUM",
    "MIN",
    "MAX",
    "COUNT",
    "AVG",
    "Measure",
    "FactRow",
    "TemporallyConsistentFactTable",
    "TemporalMultidimensionalSchema",
    # derived structures
    "StructureVersion",
    "infer_structure_versions",
    "PresentationMode",
    "ModeSet",
    "TCM_LABEL",
    "build_modes",
    "MVFactRow",
    "UnmappedFact",
    "MultiVersionFactTable",
    "DataAggregator",
    # evolution
    "SchemaEditor",
    "OperatorRecord",
    "EvolutionManager",
    "OperationResult",
    # querying
    "Query",
    "QueryEngine",
    "TimeGroup",
    "LevelGroup",
    "AttributeGroup",
    "LevelFilter",
    "ResultCell",
    "ResultRow",
    "ResultTable",
    # quality
    "DEFAULT_WEIGHTS",
    "quality_factor",
    "rank_modes",
    # auditing
    "audit_schema",
    "AuditReport",
    "Finding",
    # serialization
    "schema_to_dict",
    "schema_from_dict",
    "save_schema",
    "load_schema",
    "SerializationError",
    # errors
    "ReproError",
    "ChronologyError",
    "InvalidIntervalError",
    "ModelError",
    "DuplicateMemberVersionError",
    "UnknownMemberVersionError",
    "UnknownDimensionError",
    "InvalidRelationshipError",
    "CyclicHierarchyError",
    "ConfidenceError",
    "MappingError",
    "FactError",
    "FactValidityError",
    "AppendRefusedError",
    "OperatorError",
    "QueryError",
    "QualityError",
]
