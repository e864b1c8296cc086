"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: schema, model and I/O
problems (SchemaError, ModelInvalid) exit 1; refusals, trust-ball escapes,
broken order and inconclusive checks (ContinuationRefused,
ContractionEscape, NotBirkhoff, LaminationBroken, CheckInconclusive,
UnclassifiableSite) exit 2; iteration budget overruns (NoConvergence)
exit 3.
"""


class LamlabError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(LamlabError):
    """An experiment spec file is malformed or inconsistent."""


class ModelInvalid(LamlabError):
    """A potential or stencil violates a structural model assumption.

    Raised for sampled sign-condition violations of the interaction, for
    backgrounds that are not Morse, and for analytic derivatives that do
    not match finite differences.
    """


class NotBirkhoff(LamlabError):
    """Configuration data is incompatible with a totally ordered family."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ContractionEscape(LamlabError):
    """An iterate left the trust ball around its starting labels."""


class ContinuationRefused(LamlabError):
    """The requested coupling lies outside the certified operating range."""


class NoConvergence(LamlabError):
    """The iteration budget was exhausted before reaching tolerance."""


class CheckInconclusive(LamlabError):
    """A search for a guaranteed witness came up empty on this window."""


class UnclassifiableSite(LamlabError):
    """A configuration value falls outside every well's trust interval."""

    def __init__(self, message, site=None, value=None):
        super().__init__(message)
        self.site = site
        self.value = value


class LaminationBroken(LamlabError):
    """Continued family members are no longer totally ordered."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
