"""Exception hierarchy for the :mod:`repro` conceptual model.

Every error raised by :mod:`repro.core` derives from :class:`ReproError`, so
callers can catch a single base class.  Subpackages that model distinct
substrates (e.g. :mod:`repro.storage`) define their own hierarchies but also
derive from :class:`ReproError` for uniform handling at application level.
"""

from __future__ import annotations

__all__ = [
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


class ReproError(Exception):
    """Base class of every exception raised by the repro library."""


class ChronologyError(ReproError):
    """Base class for valid-time related errors."""


class InvalidIntervalError(ChronologyError):
    """Raised when an interval's end precedes its start, or an endpoint is
    not a valid instant."""


class ModelError(ReproError):
    """Base class for errors in the temporal multidimensional model."""


class DuplicateMemberVersionError(ModelError):
    """Raised when a member-version identifier is registered twice in the
    same temporal dimension."""


class UnknownMemberVersionError(ModelError):
    """Raised when an operation references a member-version id that does not
    exist in the dimension (or schema) it is applied to."""


class UnknownDimensionError(ModelError):
    """Raised when a schema-level operation names a dimension that the
    temporal multidimensional schema does not contain."""


class InvalidRelationshipError(ModelError):
    """Raised when a temporal relationship violates Definition 2 — e.g. its
    valid time is not included in the intersection of the valid times of the
    two member versions it links, or it links a member version to itself."""


class CyclicHierarchyError(ModelError):
    """Raised when the restriction ``D(t)`` of a temporal dimension to some
    instant ``t`` is not a directed *acyclic* graph (Definition 3)."""


class ConfidenceError(ModelError):
    """Raised on ill-formed confidence factors or aggregate truth tables
    (Definition 6) — e.g. a truth table missing a pair of factors."""


class MappingError(ModelError):
    """Raised on ill-formed mapping relationships (Definition 7) or when a
    mapping function cannot be applied/composed."""


class FactError(ModelError):
    """Base class for errors of the temporally consistent fact table."""


class FactValidityError(FactError):
    """Raised when a fact row references a member version that is not a leaf
    member version valid at the fact's time coordinate (Definition 5)."""


class AppendRefusedError(ModelError):
    """Raised when a fact cannot be folded into an inferred MultiVersion
    fact table: the table is pinned to a snapshot, the schema changed
    since the table was inferred, or a measure's aggregate is not a left
    fold (``count``, ``avg``).  Rebuild the table instead."""


class OperatorError(ModelError):
    """Raised when a structural evolution operator (Insert, Exclude,
    Associate, Reclassify — §3.2) receives inconsistent arguments."""


class QueryError(ReproError):
    """Raised by the multiversion query engine on unsatisfiable requests
    (unknown mode, unknown level, empty grouping, ...)."""


class QualityError(ReproError):
    """Raised by the quality-factor machinery (§5.2) on invalid weights."""
