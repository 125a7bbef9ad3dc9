"""Error taxonomy shared by the engine and the CLI.

Every class carries a stable ``name`` used in CLI diagnostics, so callers
can tell which invariant was violated without parsing messages.
"""


class QAffineError(Exception):
    """Base class for all errors raised by this package."""

    name = "error"


class InvalidInputError(QAffineError):
    name = "invalid-input"


class ShapeError(QAffineError):
    name = "shape"


class NormalizationError(QAffineError):
    name = "normalization"


class CapacityError(QAffineError):
    name = "capacity"


class UnitarityError(QAffineError):
    name = "unitarity"


class QubitIndexError(QAffineError):
    name = "index"


class EncodingError(QAffineError):
    name = "encoding"


class ContractionError(QAffineError):
    name = "contraction"


class MissingWitnessError(QAffineError):
    name = "missing-witness"


class PreconditionError(QAffineError):
    name = "precondition"


class SchemaError(QAffineError):
    name = "schema"
