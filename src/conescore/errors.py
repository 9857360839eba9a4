"""Exception hierarchy for the toolkit.

Every error raised by the library derives from :class:`ConescoreError`, so
callers can catch one type at a boundary (the CLI does exactly that). The
subclasses encode *what went wrong numerically*, not where it happened.
"""


class ConescoreError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(ConescoreError, ValueError):
    """A constructor or operation received an out-of-contract parameter."""


class ZeroMassError(ConescoreError):
    """An operation needed q.1 > 0 but the total mass was zero (or negative)."""


class DomainError(ConescoreError):
    """A point lies outside the domain of a grid-backed field."""


class UnsupportedFamilyError(ConescoreError):
    """The rule/operation is undefined for this density family.

    Raised for second-derivative scores on grid densities (no reliable
    curvature from sampled values) and for the supremum entropy on
    unbounded analytic families (it needs a compact grid domain).
    """


class ZeroDensityError(ConescoreError):
    """A pointwise score was requested where the density vanishes."""


class DivergenceError(ConescoreError):
    """A truncated integral keeps growing with the truncation radius."""


class InfeasibleStepError(ConescoreError):
    """An entropy evaluation left the positive cone at step t."""

    def __init__(self, message: str, step: float | None = None):
        super().__init__(message)
        self.step = step


class OneSidedOnlyError(ConescoreError):
    """A two-sided derivative was requested but -p is infeasible at every step."""


class ModeMeasureZeroError(ConescoreError):
    """The mode set has Lebesgue measure zero: no integrable subgradient exists."""


class NoWitnessError(InvalidParameterError):
    """No sign-change witness found within the truncation length K (too short a K is a parameter error)."""


class ConeMembershipError(ConescoreError):
    """Strict mode rejected a density that fails its cone check."""


class NodeBudgetError(ConescoreError):
    """The requested quadrature would exceed the node budget."""
