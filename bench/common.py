"""The operation record shared by the workload modules."""

from typing import Callable, NamedTuple, Optional


class Op(NamedTuple):
    """One timed unit of a workload's batch.

    ``fn(tracer)`` runs the operation and raises on any failure; ``known(exc)``
    returns the label of a recorded known failure of the package that ``exc``
    is an instance of, or None (see NOTES.md, "Known failures").
    """

    name: str
    fn: Callable
    known: Optional[Callable] = None
