"""Exception types shared across the toolkit.

Failure modes that callers are expected to branch on carry their
diagnostic payload as attributes instead of burying it in the message.
"""

from __future__ import annotations


class HomopartError(Exception):
    """Base class for all toolkit errors."""


class PinError(HomopartError, ValueError):
    """Link pins out of range or not in distinct parts."""


class InfeasibleParamsError(HomopartError, ValueError):
    """Requested parameters cannot be realized at this instance size."""


class DivisibilityError(InfeasibleParamsError):
    """A construction needs a divisibility relation the inputs lack."""


class CoverageError(HomopartError, RuntimeError):
    """Anchor covering stopped with too much uncovered mass.

    Attributes
    ----------
    uncovered : int
        Tuples still unassigned when the run stopped.
    budget : float
        The mass the run was required to reach.
    n_anchors : int
        Anchors spent before giving up.
    """

    def __init__(self, uncovered, budget, n_anchors):
        self.uncovered = int(uncovered)
        self.budget = float(budget)
        self.n_anchors = int(n_anchors)
        super().__init__(
            f"anchor cap reached with {self.uncovered} tuples uncovered "
            f"(budget {self.budget:.6g}, {self.n_anchors} anchors)"
        )


class FamilyRejectionError(HomopartError, RuntimeError):
    """Rejection sampling of an orthogonal family exhausted its attempts."""

    def __init__(self, attempts, stats):
        self.attempts = int(attempts)
        self.stats = dict(stats)
        detail = ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items()))
        super().__init__(f"no family accepted in {self.attempts} attempts ({detail})")


class FormatError(HomopartError, ValueError):
    """Malformed artifact file; ``offset`` is the byte position."""

    def __init__(self, offset, message):
        self.offset = int(offset)
        super().__init__(f"byte {self.offset}: {message}")
