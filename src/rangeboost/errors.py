"""Exception types, grouped by the CLI exit code they map to."""


class RangeboostError(Exception):
    """Base class for all package errors."""


class ConfigError(RangeboostError):
    """Invalid configuration or experiment description (exit code 2)."""


class DataError(RangeboostError):
    """Invalid or inconsistent input data (exit code 3)."""


class ModelError(RangeboostError):
    """Invalid model state or model document (exit code 4)."""


class InvalidConfig(ConfigError):
    pass


class MissingColumn(DataError):
    pass


class RowArity(DataError):
    pass


class UnknownColumn(DataError):
    pass


class DegenerateSplit(DataError):
    pass


class EmptyTrain(DataError):
    pass


class SchemaMismatch(DataError):
    pass


class NegativeValue(DataError):
    pass


class LengthMismatch(DataError):
    pass


class EmptyData(DataError):
    pass


class NonFiniteInput(DataError):
    pass


class DegenerateLeaf(ModelError):
    pass


class LayoutMismatch(ModelError):
    pass


class MalformedModel(ModelError):
    pass
