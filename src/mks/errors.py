"""Exception types shared across the package."""


class MksError(Exception):
    """Base class for all package errors."""


class ConfigurationError(MksError):
    """Invalid static setup: grid sizes, cutoff levels, kernel parameters."""


class UsageError(MksError):
    """A value was passed in the wrong state (representation, grid, time grid)."""


class NumericalError(MksError):
    """A numerical routine failed to converge or produced non-finite values."""


class BlowUpError(NumericalError):
    """Trajectory norm exceeded the blow-up threshold.

    Carries the time stamp and the offending norm so the harness can log
    the event and keep partial outputs.
    """

    def __init__(self, message, time, norm):
        super().__init__(message)
        self.time = time
        self.norm = norm


class WorkerLostError(MksError):
    """A worker process ended without returning its path (killed, crashed or
    out of memory).  ``running`` lists the paths in flight when the pool
    broke, the lost one among them; ``lost`` every path left without a
    result."""

    def __init__(self, running, lost):
        def listed(paths):
            return ("path " if len(paths) == 1 else "paths ") + \
                ", ".join(str(p) for p in paths)

        where = f"while running {listed(running)}" if running else \
            "before running a path"
        super().__init__(f"[workers] a worker process exited {where}; no "
                         f"result for {listed(lost)}")
        self.running = list(running)
        self.lost = list(lost)


class ValidationError(ConfigurationError):
    """Config validation failure; ``violations`` lists tagged messages."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)
