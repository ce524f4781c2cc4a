"""Exception hierarchy shared by every module in the package.

All errors raised on purpose derive from :class:`FsdcError`, so callers (and
the command line front end) can catch one type and report the message.  Plain
``OSError`` from the filesystem is deliberately left alone.  A failure comes
down to what the caller must fix: a setting, a file, or the data; the command
line exits with status 2 for a :class:`SpecError` and 1 for any other.
"""


class FsdcError(Exception):
    """Base class for every error this package raises intentionally."""


class SpecError(FsdcError, ValueError):
    """A configuration or parameter value is invalid (bad k, dim, counts...)."""


class FormatError(FsdcError):
    """A file does not conform to its on-disk format (magic, version, layout)."""


class DataError(FsdcError):
    """The data's values or shape cannot support the operation: arrays whose
    shapes or dimensionalities disagree, a value outside its domain
    (non-finite, negative where forbidden), a class with too few records or
    none, a split with fewer novel classes than an episode draws, a class id
    missing from a table, a statistic with no defined value (zero variance,
    zero-norm vector), a covariance that cannot be Cholesky-factorized even
    after jitter, or training whose loss or gradient became non-finite."""
