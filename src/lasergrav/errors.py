"""Exception hierarchy: usage errors are ValueErrors, numerical failures
get their own classes so the CLI can map them to a distinct exit code."""


class LaserGravError(Exception):
    """Base class for package-specific failures."""


class NumericsError(LaserGravError):
    """A numerical procedure failed (non-convergence, a minimum out of range)."""


class ConvergenceError(NumericsError):
    """An iteration did not reach its tolerance within its step cap."""


class CollapseError(NumericsError):
    """The relaxing cloud shrank below the grid resolution."""


class UnboundError(LaserGravError):
    """No self-bound solution exists at the requested parameters."""


class SpeciesFileError(LaserGravError, ValueError):
    """A species file could not be parsed; the message names the line.  Like a
    missing file it is a usage error, so it is also a ValueError."""
