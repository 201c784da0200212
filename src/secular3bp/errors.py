"""Exception types shared across the toolkit."""


class Secular3bpError(Exception):
    """Base class for toolkit-specific failures."""


class OrbitCrossingError(Secular3bpError):
    """The two orbits intersect (or pass closer than the safety threshold).

    The averaging integrands blow up as the inter-orbit distance goes to
    zero, so quadrature results would be meaningless; callers must treat the
    configuration as outside the model's domain of validity.
    """

    def __init__(self, message, separation):
        super().__init__(message)
        self.separation = separation

    def __reduce__(self):
        # Pickled with both arguments, so it crosses process boundaries.
        return type(self), (str(self), self.separation)


class NonConvergedError(Secular3bpError):
    """Node doubling hit the node cap before reaching the requested tolerance."""

    def __init__(self, message, last_error=None, nodes=None):
        super().__init__(message)
        self.last_error = last_error
        self.nodes = nodes


class DegenerateError(Secular3bpError):
    """A frequency or stability computation hit a degenerate quadratic form."""
