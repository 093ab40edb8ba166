"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """An edge list, CSR array, or serialized graph is malformed."""


class LayoutError(ReproError):
    """An address-space layout request is invalid (overlap, bad size, ...)."""


class CacheConfigError(ReproError):
    """A cache geometry is invalid (non power-of-two line, zero ways, ...)."""


class PolicyError(ReproError):
    """A replacement policy was misused or misconfigured."""


class SimulationError(ReproError):
    """The simulation driver was wired incorrectly."""


class ReservationError(SimulationError):
    """P-OPT's Rereference Matrix reservation leaves no LLC way for data
    (the regime where P-OPT stops being applicable: Fig. 11's right
    edge)."""


class SanitizerError(ReproError):
    """A runtime invariant of the cache simulator was violated.

    Raised by :class:`repro.cache.sanitizer.CacheSanitizer` during
    sanitized replays (``simulate_prepared(..., sanitize=True)``): the
    simulator's internal state or statistics stopped satisfying an
    invariant that every correct replay maintains."""


class WidthContractError(ReproError):
    """A value does not fit the width its contract declares.

    Raised by :func:`repro.sim.constants.narrow` and by the constructors
    that carry a :data:`~repro.sim.constants.WIDTH_CONTRACTS` value
    (:class:`~repro.graph.csr.CSRGraph`,
    :class:`~repro.popt.rereference.RereferenceMatrix`,
    :class:`~repro.apps.base.PreparedRun`). ``contract`` names the
    contract, ``value`` the offending value, ``where`` the site or file
    it came from and ``bound`` what it had to fit."""

    def __init__(self, contract: str, value, where: str, bound: str):
        super().__init__(contract, value, where, bound)
        self.contract = contract
        self.value = value
        self.where = where
        self.bound = bound

    def __str__(self) -> str:
        return (
            f"{self.where}: {self.contract} value {self.value} does not "
            f"fit {self.bound}"
        )
