"""Exception types shared across the package.

The CLI maps these onto exit codes, so keep the taxonomy small:
config/usage problems, malformed data files, and numerical failures.
"""


class DataFormatError(ValueError):
    """A dataset file does not match its declared binary format."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


class NumericalError(RuntimeError):
    """A run diverged; `run_experiment` stops it and flags the record incomplete."""
