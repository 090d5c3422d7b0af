"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An input violates a documented precondition (bad units, signs, grids)."""


class BranchError(RuntimeError):
    """A closed-form expression was evaluated outside its analytic branch.

    Typical cause: asking for an interior frequency nadir when the response
    is in the asymptotic regime, or inverting the equivalent-tau model for
    an unattainable target. The message names the applicable alternative.
    """


class FitError(RuntimeError):
    """A least-squares fit found no finite optimum inside its parameter box."""
