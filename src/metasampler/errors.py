"""Exception types shared across the package."""


class DataError(Exception):
    """Dataset contents violate the library's contracts."""


class EmptyDataError(DataError):
    """File or table contains no usable rows."""


class FeatureParseError(DataError):
    """A feature cell could not be parsed as a finite number."""


class LabelDomainError(DataError):
    """A label value is outside {0, 1}."""


class SingleClassError(DataError):
    """An operation that needs both classes saw only one."""


class ColumnNotFoundError(DataError):
    """The requested label column does not exist."""


class ClassTooSmallError(DataError):
    """A class has too few instances for the requested operation."""


class SamplerFormatError(DataError, ValueError):
    """A sampler file does not hold a readable sampler document."""


class ConfigError(Exception):
    """Invalid run configuration (CLI flags or config file)."""


class NumericalError(Exception):
    """A non-finite value appeared where finite arithmetic is required."""
