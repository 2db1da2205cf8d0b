"""Exception types shared across the toolkit."""


class SoficSemiError(Exception):
    """Base class for all toolkit errors."""


class CapExceeded(SoficSemiError):
    def __init__(self, cap, detail=""):
        self.cap = cap
        self.detail = detail
        super().__init__(f"closure exceeded cap {cap}" + (f" ({detail})" if detail else ""))


class DimensionMismatch(SoficSemiError):
    pass


class NotIdempotent(SoficSemiError):
    pass


class NotFactorial(SoficSemiError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"set is not factorial, witness {witness}")


class NotIrreducible(SoficSemiError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"set is not irreducible, witness pair {witness}")


class NotSurjective(SoficSemiError):
    pass


class NotRegular(SoficSemiError):
    pass


class NotStronglyConnected(SoficSemiError):
    pass


class ShiftIsMinimal(SoficSemiError):
    pass


class NotPrimitive(SoficSemiError):
    pass


class InvalidState(SoficSemiError):
    pass


class NotAGGM(SoficSemiError):
    pass


class CheckFailed(SoficSemiError):
    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message if witness is None else f"{message}, witness {witness}")


def check(cond, message, witness=None):
    """Raise CheckFailed(message, witness) unless cond holds; unlike `assert`,
    this survives `python -O`."""
    if not cond:
        raise CheckFailed(message, witness)


class NoCompatibleTriangle(SoficSemiError):
    pass


class NotFaithful(SoficSemiError):
    pass


class NotTransitive(SoficSemiError):
    pass


class RankTooHigh(SoficSemiError):
    pass


class HypothesisViolated(SoficSemiError):
    def __init__(self, name, detail=""):
        self.name = name
        super().__init__(f"hypothesis '{name}' violated" + (f": {detail}" if detail else ""))


class PrimeSearchFailed(SoficSemiError):
    pass


class NotASubshift(SoficSemiError):
    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message if witness is None else f"{message}, witness {witness}")


class ToleranceNotReached(SoficSemiError):
    def __init__(self, best):
        self.best = best
        super().__init__(f"tolerance not reached, best bracket {best}")
