"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` (used in CLI error
documents) and an ``exit_code`` (the process status the CLI maps it to).
"""


class WeakTraceError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"
    exit_code = 4


class NetworkError(WeakTraceError):
    """A network definition violates a structural invariant."""

    code = "invalid_network"
    exit_code = 3


class CyclicGraphError(NetworkError):
    code = "cyclic_graph"


class NonUnitaryScatterError(NetworkError):
    code = "non_unitary_scatter"

    def __init__(self, node_id: str, deviation: float):
        super().__init__(
            f"scatter matrix of node {node_id!r} deviates from unitarity "
            f"by {deviation:.3e}"
        )
        self.node_id = node_id
        self.deviation = deviation


class DanglingPortError(NetworkError):
    code = "dangling_port"


class PortConflictError(NetworkError):
    code = "port_conflict"


class DuplicateLabelError(NetworkError):
    code = "duplicate_label"


class UnknownLabelError(NetworkError):
    """A site label was requested that no arm in the network carries."""

    code = "unknown_label"


class TooManyRoutesError(NetworkError):
    """Listing the routes, or reading out their classes, would pass a work bound."""

    code = "too_many_routes"


class VanishingTotalError(WeakTraceError):
    """The summed detection amplitude is too small to normalize against."""

    code = "vanishing_total"


class DegeneratePointerError(WeakTraceError):
    """The post-selected pointer norm is numerically zero."""

    code = "degenerate_pointer"


class NonFiniteResultError(WeakTraceError):
    """A computed value is NaN or infinite and cannot go into a report."""

    code = "non_finite_result"


class OutputError(WeakTraceError):
    """A report or CSV file cannot be written where the command was told to."""

    code = "unwritable_output"
    exit_code = 2


class SchemaError(WeakTraceError):
    """A scenario document is malformed or has out-of-range values."""

    code = "schema_error"
    exit_code = 2

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
