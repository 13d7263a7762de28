"""Exception types shared across the package."""


class DiftGameError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DiftGameError):
    """A graph, strategy, or parameter block violates a structural invariant."""


class ParseError(DiftGameError):
    """A graph or strategy file could not be parsed.

    The message names the offending field (and the path when known).
    """

    def __init__(self, message, field=None, path=None):
        self.field = field
        self.path = path
        parts = [message]
        if field is not None:
            parts.append(f"field={field!r}")
        if path is not None:
            parts.append(f"path={path}")
        super().__init__("; ".join(parts))


class TruncationError(DiftGameError):
    """Exact evaluation left more residual walk mass than the tolerance allows."""

    def __init__(self, residual, eps, max_len):
        self.residual = residual
        self.eps = eps
        self.max_len = max_len
        super().__init__(
            f"residual walk mass {residual:.3e} exceeds eps_trunc={eps:.1e} "
            f"at max_len={max_len}; raise max_len or use the Monte Carlo estimator"
        )


class InvalidPath(DiftGameError):
    """An adversary walk contains a step that is not an edge of the graph."""


class NotSingleStage(DiftGameError):
    """A single-stage solver was called on a graph with more than one stage."""


class Unreachable(DiftGameError):
    """No destination of any stage can be reached from the attack source."""


class DegenerateEquilibrium(DiftGameError):
    """The closed-form equilibrium probabilities fall outside (0, 1]."""


class GenerationFailed(DiftGameError):
    """The synthetic graph generator exhausted its retry budget."""


class NonConvergence(DiftGameError):
    """An iterative solve reached its iteration cap before its tolerance.

    Part of the public error hierarchy; the swap-chain fixed point is a
    direct solve and never raises it.
    """
