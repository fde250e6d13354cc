"""Exceptions with stable process exit codes for the command line tools."""


class ConfigError(ValueError):
    """Bad or inconsistent configuration input."""

    exit_code = 2


class SolverDivergence(RuntimeError):
    """An iteration blew up or failed to reach its tolerance."""

    exit_code = 3


class RegimeError(ValueError):
    """Parameters outside the regime a guarantee or formula covers."""

    exit_code = 4


EXIT_OK = 0
EXIT_INTERNAL = 5   # any other exception: a defect of the program
