"""Exception hierarchy shared by all fourfold modules."""


class FourfoldError(Exception):
    """Base class for all errors raised by this package."""

    code = "Error"

    def __str__(self):
        msg = super().__str__()
        return f"{self.code}: {msg}" if msg else self.code


class InvalidSetting(FourfoldError, ValueError):
    """An option or an input size outside its allowed range."""

    code = "InvalidSetting"


# lattice

class DimensionMismatch(FourfoldError):
    code = "DimensionMismatch"


# manifold

class DefinitePartUnsupported(FourfoldError):
    code = "DefinitePartUnsupported"


class OrientationReversalUnavailable(FourfoldError):
    code = "OrientationReversalUnavailable"


# cover

class NoNontrivialCoverAvailable(FourfoldError):
    code = "NoNontrivialCoverAvailable"


# charpoly

class ModeMismatch(FourfoldError):
    """Operands over tori of different dimension."""

    code = "ModeMismatch"


# obstruct

class SlotUnavailable(FourfoldError):
    code = "SlotUnavailable"


class PreconditionViolated(FourfoldError):
    code = "PreconditionViolated"


class ZeroClassUnavailable(FourfoldError):
    code = "ZeroClassUnavailable"


class RankMismatch(FourfoldError):
    code = "RankMismatch"


class HypothesesNotMet(FourfoldError):
    code = "HypothesesNotMet"


# cli

class ParseError(FourfoldError):
    code = "ParseError"

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset

    def __str__(self):
        base = super().__str__()
        if self.offset is not None:
            return f"{base} (at byte {self.offset})"
        return base


class GenusZero(FourfoldError):
    code = "GenusZero"


class NegativeMultiplicity(FourfoldError):
    code = "NegativeMultiplicity"
