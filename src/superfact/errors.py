"""Exception types shared across the library."""


class SuperfactError(Exception):
    """Base class for all library-specific errors."""


class DomainError(SuperfactError):
    """Evaluation outside the valid coordinate region: singular denominator,
    non-positive square-root argument, or a point beyond a domain guard."""


class PositivityError(DomainError):
    """A sector integral that must be positive was not (within tolerance)."""


class UnsupportedError(SuperfactError):
    """Operation not defined for the requested Hamiltonian family."""


class SamplerExhausted(SuperfactError):
    """Rejection sampling hit its draw budget before reaching the count."""


class DomainBreach(SuperfactError):
    """A trajectory approached the domain boundary.

    Carries the breach time, the last in-domain state, and the partial
    trajectory accumulated up to the breach; :func:`~superfact.integrate`
    attaches an empty one when the initial state already breaches.
    """

    def __init__(self, message, time=None, state=None, trajectory=None):
        super().__init__(message)
        self.time = time
        self.state = state
        self.trajectory = trajectory


class StepFailure(SuperfactError):
    """The integrator could not complete a step (size underflow or a
    non-convergent implicit solve)."""


class InsufficientSpan(SuperfactError):
    """Trajectory too short for the requested analysis."""


class NoSolution(SuperfactError):
    """No phase point matches the prescribed integral levels.

    ``search`` carries the telemetry of the level search that gave up (a
    :class:`~superfact.levels.LevelSearch`), when one ran or was skipped.
    """

    def __init__(self, message, search=None):
        super().__init__(message)
        self.search = search
