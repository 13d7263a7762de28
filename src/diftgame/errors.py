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
    """``CompiledPaths`` found more than ``walk_cap`` walks in the adversary's support.

    ``residual`` is the walk mass not yet enumerated when compiling stopped.
    """

    def __init__(self, residual, walk_cap, max_len):
        self.residual = residual
        self.walk_cap = walk_cap
        self.max_len = max_len
        super().__init__(f"adversary support has more than {walk_cap} walks of at most "
                         f"max_len={max_len} moves; walk mass {residual:.3e} is not enumerated")


class InvalidPath(DiftGameError):
    """An adversary walk contains a step that is not an edge of the graph."""


class NotSingleStage(DiftGameError):
    """A single-stage solver was called on a graph with more than one stage."""


class Unreachable(DiftGameError):
    """No destination of any stage can be reached from the attack source."""


class DegenerateEquilibrium(DiftGameError):
    """A cut node has a zero-cost tag, trap or rule component, which the
    closed-form single-stage equilibrium cannot mix."""


class GenerationFailed(DiftGameError):
    """The node budget cannot host the generator's destinations, entries and relays."""

