"""Exception hierarchy shared by all fourfold modules."""


class FourfoldError(Exception):
    """Base class for all errors raised by this package; one prints as its
    class name, then ": " and its message if it has one."""

    def __str__(self):
        msg, name = super().__str__(), type(self).__name__
        return f"{name}: {msg}" if msg else name


class InvalidSetting(FourfoldError, ValueError):
    """An option or an input size outside its allowed range."""


# lattice

class DimensionMismatch(FourfoldError):
    """A free part whose length is not its cover's rank."""


# manifold

class DefinitePartUnsupported(FourfoldError):
    """A nonempty simply-connected part that is definite."""


class OrientationReversalUnavailable(FourfoldError):
    """A block whose mirror is not modeled."""


# cover

class NoNontrivialCoverAvailable(FourfoldError):
    """A sum that the standard double-cover recipe does not apply to."""


# charpoly

class ModeMismatch(FourfoldError):
    """Operands over tori of different dimension."""


# obstruct

class SlotUnavailable(FourfoldError):
    """A reflection slot the sum does not hold, or two on one pair."""


class PreconditionViolated(FourfoldError):
    """An argument outside what the function is defined on."""


class ZeroClassUnavailable(FourfoldError):
    """w2 + w1^2 != 0, so no candidate class has c1 = 0."""


class RankMismatch(FourfoldError):
    """Class data over a torus other than the family's."""


class HypothesesNotMet(FourfoldError):
    """A sum outside the hypotheses of every scenario tried."""


# cli

class ParseError(FourfoldError):
    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset

    def __str__(self):
        base = super().__str__()
        if self.offset is not None:
            return f"{base} (at byte {self.offset})"
        return base


class GenusZero(FourfoldError):
    """An S2xSigma block of genus 0."""


class NegativeMultiplicity(FourfoldError):
    """A summand count below 0."""
