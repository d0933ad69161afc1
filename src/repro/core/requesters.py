"""Requester interfaces: how agents declare the reference data they need.

The paper (Section 5, Fig. 4) models the declaration of needed reference
data "by declaring the implementation of interfaces named
``InitalStateRequester``, ``ResultingStateRequester``,
``InputRequester``, ``ExecutionLogRequester``, and
``ResourceRequester``, similar to the usage of ``Clonable`` in Java".

In Python the same idea maps onto marker mixin classes: an agent class
inherits the requester mixins for the data kinds its checking mechanism
needs, and the framework inspects the class to decide what to collect
and transport.  :func:`requested_data_kinds` performs that inspection.
"""

from __future__ import annotations

from typing import FrozenSet, Union

from repro.core.attributes import ReferenceDataKind

__all__ = [
    "InitialStateRequester",
    "ResultingStateRequester",
    "InputRequester",
    "ExecutionLogRequester",
    "ResourceRequester",
    "requested_data_kinds",
]


class InitialStateRequester:
    """Marker: the agent's checking mechanism needs the initial state."""

    _reference_data_kind = ReferenceDataKind.INITIAL_STATE


class ResultingStateRequester:
    """Marker: the agent's checking mechanism needs the resulting state."""

    _reference_data_kind = ReferenceDataKind.RESULTING_STATE


class InputRequester:
    """Marker: the agent's checking mechanism needs the session input."""

    _reference_data_kind = ReferenceDataKind.INPUT


class ExecutionLogRequester:
    """Marker: the agent's checking mechanism needs the execution log."""

    _reference_data_kind = ReferenceDataKind.EXECUTION_LOG


class ResourceRequester:
    """Marker: the agent's checking mechanism needs replicated resources."""

    _reference_data_kind = ReferenceDataKind.RESOURCES


_MARKERS = (
    InitialStateRequester,
    ResultingStateRequester,
    InputRequester,
    ExecutionLogRequester,
    ResourceRequester,
)


def requested_data_kinds(agent_or_class: Union[object, type]) -> FrozenSet[ReferenceDataKind]:
    """Return the reference-data kinds an agent declares it needs.

    Accepts either an agent instance or an agent class.  Agents that
    declare nothing get an empty set; the protection policy may still
    add kinds of its own (the union is what gets collected).
    """
    cls = agent_or_class if isinstance(agent_or_class, type) else type(agent_or_class)
    kinds = set()
    for marker in _MARKERS:
        if issubclass(cls, marker):
            kinds.add(marker._reference_data_kind)
    return frozenset(kinds)

