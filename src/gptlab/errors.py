"""Exception types shared across the package."""


class GptlabError(Exception):
    """Base class for all errors raised by gptlab."""


class InputError(GptlabError, ValueError):
    """Malformed or contract-violating input."""


class UnboundedError(GptlabError):
    """An operation that requires a bounded polytope received an unbounded one."""


class EmptyError(GptlabError):
    """An operation that requires a nonempty polytope received an empty one."""


class NotAVertexError(GptlabError):
    """A probability table claimed to be a polytope vertex is not one."""


class UnsupportedError(GptlabError):
    """The operation is not defined for this kind of state space."""
