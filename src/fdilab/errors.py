"""Exception hierarchy.

Three top-level families map onto the CLI exit codes: input problems
(parse/validation, exit 2), numerical failures (exit 3) and infeasible
problems (exit 4).
"""


class FdiLabError(Exception):
    """Base class for every error raised by this package; ``exit_code`` is the CLI's exit code."""

    exit_code = 3


# -- input / validation (exit code 2) ----------------------------------------

class ParseError(FdiLabError):
    """A case file could not be parsed. Carries path and location."""

    exit_code = 2

    def __init__(self, path, location, reason):
        self.path = str(path)
        self.location = location
        self.reason = reason
        super().__init__(f"{self.path}: {location}: {reason}")


class ValidationError(FdiLabError):
    """Semantically invalid input (well-formed file, bad content)."""

    exit_code = 2


class DuplicateBus(ValidationError):
    pass


class DisconnectedGraph(ValidationError):
    pass


class NonPositiveReactance(ValidationError):
    pass


class UnknownBranch(ValidationError):
    pass


class UnknownBus(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class DegenerateFreedom(ValidationError):
    """Chi-square test undefined: no redundancy (m <= n)."""


# -- numerical failures (exit code 3) -----------------------------------------

class NumericalError(FdiLabError):
    pass


class UnobservableConfiguration(NumericalError):
    """rank(H) < n: metered branches leave some bus cut off from the slack."""


class SingularGainMatrix(NumericalError):
    pass


class AllMetersCritical(NumericalError):
    """Every residual variance is structurally zero; LNR test undefined."""


# -- infeasibility (exit code 4) ----------------------------------------------

class InfeasibleError(FdiLabError):
    exit_code = 4


class InfeasibleSupport(InfeasibleError):
    """No nonzero attack vector vanishes on all uncontrolled meters."""


class InfeasibleDispatch(InfeasibleError):
    pass
