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


class SignallingError(GptlabError):
    """A probability table violates a no-signalling equality.

    Carries enough detail to reconstruct the violated marginal equality.
    """

    def __init__(self, party, outcome, setting, other_settings, values):
        self.party = party
        self.outcome = outcome
        self.setting = setting
        self.other_settings = other_settings
        self.values = values
        # linalg imports this module, so its formatter is imported here.
        from .ratgeo.linalg import format_rational

        # str(v) at any length: format_rational less the denominator 1.
        texts = [format_rational(v).removesuffix("/1") for v in values]
        super().__init__(
            "marginal p_%s(%d|%d) depends on the remote setting: "
            "settings %s give values %s"
            % (party, outcome, setting, other_settings, texts)
        )


class UnsupportedError(GptlabError):
    """The operation is not defined for this kind of state space."""
