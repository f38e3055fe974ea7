"""Exception types shared across the package."""


class OhtlabError(Exception):
    """Base class for all package errors."""


class TruncationError(OhtlabError):
    """Fock truncation too small to hold the requested state."""


class PurityError(OhtlabError):
    """State is too mixed for a wave-function reconstruction."""


class ReferencePointError(OhtlabError):
    """Wave-function reference column has (near) zero weight."""


class AliasingError(OhtlabError):
    """Too few LO phases for the requested photon-number cutoff."""


class GramConditionError(OhtlabError):
    """Pattern-function Gram matrix is numerically singular."""


class UnsupportedStateError(OhtlabError):
    """Operation restricted to a state class the input is not in."""


class CoverageError(OhtlabError):
    """Dataset phase coverage insufficient for the estimator."""


class DataFormatError(OhtlabError):
    """File failed format or schema validation."""


class ConfigError(OhtlabError, ValueError):
    """A config or flag value was refused, by the code that owns the check;
    also a ValueError, so callers catching ValueError still catch it."""


class NearVacuumError(OhtlabError):
    """Mean photon number indistinguishable from zero; ratio undefined."""
