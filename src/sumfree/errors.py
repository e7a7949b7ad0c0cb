"""Shared exception types.

The command line maps these onto process exit codes: invalid parameters
exit with 2, blown resource caps with 3, and falsification events (a
computation contradicting one of the guarantees the library promises to
uphold) with 4.
"""

from __future__ import annotations


class InvalidParameterError(ValueError):
    """A caller-supplied parameter violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A cap (grid size, sweep breakpoints, edge count, measure support, schedule bits) was hit.

    ``required`` carries the amount the refused work would have needed.
    """

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class FalsificationError(RuntimeError):
    """An internal guarantee failed.

    Raised when a result that is mathematically forced (a dilation slice
    failing to be sum-free, an extraction score dropping below its proven
    bound) does not hold.  This always indicates a bug, never bad input,
    and is deliberately loud.
    """
