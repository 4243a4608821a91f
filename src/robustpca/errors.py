"""Exception types shared across the package."""


class DegenerateStateError(RuntimeError):
    """An estimator or operator hit a state with no usable data.

    Examples: a second-moment operator over no surviving rows, a quantile
    over an empty survivor set, or a power chain collapsed to the zero
    vector (each chain has one Gaussian start and none is retried).
    """


class StreamExhaustedError(RuntimeError):
    """A sample source ran out of budget mid-computation."""


class MemoryBudgetError(RuntimeError):
    """A streaming run's resident scalars exceeded the declared budget."""


class FilterLoopError(RuntimeError):
    """The thresholding loop exceeded its round guard; indicates a bug."""
