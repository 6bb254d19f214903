"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when a config file cannot be parsed or violates an invariant.

    ``field`` names the offending entry (dotted path into the JSON document).
    """

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class InfeasibleError(RuntimeError):
    """A solver found no decision satisfying a named constraint."""

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        self.detail = detail
        msg = f"infeasible: {constraint}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class StalledLinkError(RuntimeError):
    """A link with a payload to move has zero rate (dead or stalled link)."""


class OracleGuardError(ValueError):
    """A brute-force oracle was invoked beyond its tractability guard."""


class SimulationAborted(RuntimeError):
    """The round loop hit persistent infeasibility and stopped."""
