"""Typed engine events and the single emit/subscribe surface.

The engine reports through *typed events*: one frozen dataclass per
thing that can happen, dispatched through a single
:meth:`EventStream.emit` call to any number of subscribers.

A subscriber is anything with a ``handle(event)`` method (a plain
callable also works); ``handle``/``dispatch`` is the only delivery
surface.

Events are strictly *observational*: they carry timings and counters,
never results, so attaching or detaching subscribers can never change
what an experiment computes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union


@dataclass(frozen=True)
class EngineEvent:
    """Base class for everything the engine can report."""


# ----------------------------------------------------------------------
# run / experiment lifecycle
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunStarted(EngineEvent):
    """A multi-experiment run is starting."""

    n_experiments: int


@dataclass(frozen=True)
class ExperimentStarted(EngineEvent):
    """One experiment is about to run."""

    name: str


@dataclass(frozen=True)
class ExperimentEnded(EngineEvent):
    """One experiment finished (``cached`` if served from the cache)."""

    name: str
    elapsed_s: float
    cached: bool


@dataclass(frozen=True)
class RunEnded(EngineEvent):
    """The multi-experiment run finished."""

    elapsed_s: float


# ----------------------------------------------------------------------
# batch progress
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchStarted(EngineEvent):
    """A chip batch of ``total`` work items is being scheduled."""

    label: str
    total: int


@dataclass(frozen=True)
class ChipCompleted(EngineEvent):
    """One work item of a batch completed (``completed`` so far)."""

    label: str
    completed: int
    total: int


@dataclass(frozen=True)
class BatchEnded(EngineEvent):
    """A chip batch fully completed."""

    label: str
    total: int
    elapsed_s: float


# ----------------------------------------------------------------------
# robustness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TaskRetried(EngineEvent):
    """One work item failed and is being retried (``attempt`` so far)."""

    label: str
    index: int
    attempt: int
    reason: str


@dataclass(frozen=True)
class WorkerRespawned(EngineEvent):
    """The worker pool broke (crash/timeout) and was recycled."""

    label: str
    pool_failures: int


@dataclass(frozen=True)
class RunCheckpointed(EngineEvent):
    """``flushed`` batch results were durably journalled."""

    label: str
    flushed: int


@dataclass(frozen=True)
class RunResumed(EngineEvent):
    """``restored`` batch results were served from the run journal."""

    label: str
    restored: int


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpansCollected(EngineEvent):
    """Trace spans shipped back from one completed worker task.

    ``spans`` is a tuple of :class:`~repro.engine.trace.Span`; the event
    exists so worker-side profiling data flows through the same emit
    surface as every other engine signal (a tracer subscribes, other
    observers ignore it).  ``peak_rss_kb`` is the worker's peak resident
    set size at the time the task finished (0 when unavailable).
    """

    label: str
    spans: Tuple[Any, ...]
    pid: int
    peak_rss_kb: int = 0


@dataclass(frozen=True)
class KernelPathsCollected(EngineEvent):
    """Replay paths taken by one completed evaluation batch.

    ``paths`` maps ``"scheme/benchmark"`` cells to the replay path that
    produced their statistics (``"flattened"``, ``"timeline"`` or
    ``"event"`` -- see :func:`repro.core.kernel_support`).  Purely
    observational: the paths are bit-identity-gated, so which kernel ran
    never changes a result, only how long it took.
    """

    label: str
    paths: Tuple[Tuple[str, str], ...]


# ----------------------------------------------------------------------
# JSON codec (the execution service's durable event stream)
# ----------------------------------------------------------------------

#: Event classes that survive a JSON round trip.  ``SpansCollected`` is
#: deliberately absent: span payloads are arbitrary objects and the
#: service's ``events.jsonl`` files only carry progress-shaped records.
_CODEC_EVENT_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        RunStarted,
        ExperimentStarted,
        ExperimentEnded,
        RunEnded,
        BatchStarted,
        ChipCompleted,
        BatchEnded,
        TaskRetried,
        WorkerRespawned,
        RunCheckpointed,
        RunResumed,
        KernelPathsCollected,
    )
}


def encode_event(event: EngineEvent) -> Optional[Dict[str, Any]]:
    """``event`` as a JSON-ready dict, or ``None`` if not encodable.

    The dict carries a ``"type"`` discriminator plus the event's fields;
    :func:`decode_event` inverts it.  Events outside the codec set
    (currently only :class:`SpansCollected`, whose span payloads are not
    JSON-shaped) encode to ``None`` so writers can skip them.
    """
    name = type(event).__name__
    if name not in _CODEC_EVENT_TYPES:
        return None
    record: Dict[str, Any] = {"type": name}
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        if isinstance(value, tuple):
            value = [
                list(item) if isinstance(item, tuple) else item
                for item in value
            ]
        record[field.name] = value
    return record


def decode_event(record: Dict[str, Any]) -> EngineEvent:
    """The typed event a :func:`encode_event` dict stands for."""
    payload = dict(record)
    try:
        name = payload.pop("type")
        cls = _CODEC_EVENT_TYPES[name]
    except KeyError:
        raise ValueError(
            f"not a decodable engine event record: {record!r}"
        ) from None
    for field in dataclasses.fields(cls):
        value = payload.get(field.name)
        if isinstance(value, list):
            payload[field.name] = tuple(
                tuple(item) if isinstance(item, list) else item
                for item in value
            )
    return cls(**payload)


#: A subscriber: an object with ``handle(event)`` or a bare callable.
Subscriber = Union[Callable[[EngineEvent], None], Any]


def dispatch(subscriber: Subscriber, event: EngineEvent) -> None:
    """Deliver one event to one subscriber (``handle`` or call)."""
    handler = getattr(subscriber, "handle", None)
    if handler is not None:
        handler(event)
    else:
        subscriber(event)


class EventStream:
    """Fans every emitted event out to its subscribers, in order.

    The stream is itself a valid subscriber (``handle`` aliases
    ``emit``), so streams compose;
    :class:`~repro.engine.observer.CompositeObserver` is the named
    composition the runner and drivers build on.
    """

    def __init__(self, subscribers: Iterable[Subscriber] = ()):
        self._subscribers: List[Subscriber] = list(subscribers)

    @property
    def subscribers(self) -> Tuple[Subscriber, ...]:
        """The current subscribers, in dispatch order."""
        return tuple(self._subscribers)

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Add a subscriber; returns it (usable as a decorator)."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove a subscriber (no error if absent)."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass

    def emit(self, event: EngineEvent) -> None:
        """Deliver ``event`` to every subscriber, in subscription order."""
        for subscriber in self._subscribers:
            dispatch(subscriber, event)

    def handle(self, event: EngineEvent) -> None:
        """Alias for :meth:`emit`: a stream is a composable subscriber."""
        self.emit(event)


__all__ = [
    "EngineEvent",
    "RunStarted",
    "ExperimentStarted",
    "ExperimentEnded",
    "RunEnded",
    "BatchStarted",
    "ChipCompleted",
    "BatchEnded",
    "TaskRetried",
    "WorkerRespawned",
    "RunCheckpointed",
    "RunResumed",
    "SpansCollected",
    "KernelPathsCollected",
    "Subscriber",
    "dispatch",
    "encode_event",
    "decode_event",
    "EventStream",
]
