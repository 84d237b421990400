"""Exception hierarchy for the wise package.

Every error raised by the library derives from :class:`WiseError`, so callers
can catch one type at the boundary (the CLI does exactly that).
"""


class WiseError(Exception):
    """Base class for all errors raised by this package."""


class InvalidValue(WiseError):
    """Input contains NaN/infinite entries or an out-of-range scalar."""


class TooFewObservations(WiseError):
    """The series is too short for the requested operation (n >= 4 for moments)."""


class ShapeMismatch(WiseError):
    """Observation shapes are inconsistent, or matrix dimensions disagree."""


class NotAQuantile(WiseError):
    """A quantile-kind observation is not a nondecreasing sequence."""


class KernelMismatch(WiseError):
    """The similarity kernel does not accept the series' observation kind."""


class BadWeightParam(WiseError):
    """A weight or kernel parameter is outside its legal range."""


class ParseError(WiseError):
    """A spec string does not match the `family[:key=value,...]` grammar."""


class BadModelParam(WiseError):
    """A simulation model parameter is outside its legal range."""


class DegenerateVariance(WiseError):
    """The permutation null distribution is degenerate (no variation to test)."""


class BadRange(WiseError):
    """An empty or inverted range (e.g. ingestion date range) was supplied."""


class ExperimentError(WiseError):
    """A benchmark cell failed (too many errored replications)."""
