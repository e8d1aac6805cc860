"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SfdError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SfdError):
    """Raised when model or scenario text cannot be parsed.

    Carries 1-based line and column of the offending token.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ModelError(SfdError):
    """Base class for model construction and validation failures."""


class InvalidParameterError(ModelError):
    """A model parameter's value is outside the range its definition
    declares (`ParamDef.bound`); `field` is the parameter's name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class DuplicateNameError(ModelError):
    """A stock, flow, auxiliary, or parameter name is defined twice."""


class UnknownSymbolError(ModelError):
    """An expression references a name the model does not define."""


class CycleError(ModelError):
    """Auxiliary and flow definitions form a dependency cycle."""

    def __init__(self, cycle: list[str]):
        super().__init__("cyclic dependency: " + " -> ".join(cycle))
        self.cycle = cycle


class UnitError(ModelError):
    """A flow's declared unit does not match its stock's unit."""


class EventGridError(ModelError):
    """A scheduled event does not land on the integration grid."""


class SimulationError(SfdError):
    """Base class for runtime failures during integration."""


class NonFiniteError(SimulationError):
    """A state variable or rate became NaN or infinite."""

    def __init__(self, name: str, t: float):
        super().__init__(f"non-finite value in '{name}' at t={t:g}")
        self.name = name
        self.t = t


class ClampError(SimulationError):
    """The conserving clamp's scale factors did not settle on a cycle of
    stock-to-stock flows."""

    def __init__(self, stocks: tuple[str, ...], t: float):
        super().__init__(
            f"conserving clamp did not converge for stocks {', '.join(stocks)} at t={t:g}"
        )
        self.stocks = stocks
        self.t = t


class NotRecordedError(SfdError, KeyError):
    """A run's output was read at a column or a time it did not record: an
    unknown column name, or a time off the recorded grid. It is a KeyError,
    as the failed lookup it is; `args[0]` is the message."""


class NoFeasiblePolicyError(SfdError):
    """No point in a policy grid satisfies the feasibility constraint."""
