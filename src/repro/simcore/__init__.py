"""Discrete-event simulation kernel.

A minimal, deterministic, generator-driven simulator in the SimPy style:

>>> from repro.simcore import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3.0)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run(proc)
3.0

``__all__`` below is the kernel's stable public surface: the
environment (which owns the one pending-event heap) and event types,
the observer seam (:class:`Probe`, installed with :func:`attach`), tracing,
resources, and seeded RNG streams.
"""

from repro.simcore.environment import Environment, FOREVER
from repro.simcore.events import AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from repro.simcore.probe import FanoutProbe, Probe, attach
from repro.simcore.process import Interrupt, Process
from repro.simcore.resources import TIMED_OUT, Container, Resource, Store
from repro.simcore.rng import RngRegistry, jittered
from repro.simcore.tracing import (
    NULL_TRACER,
    OBS_CONTEXT_PARAM,
    Mark,
    NullTracer,
    Span,
    SpanSink,
    TraceContext,
    Tracer,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Container",
    "Environment",
    "Event",
    "FOREVER",
    "FanoutProbe",
    "Interrupt",
    "Mark",
    "NULL_TRACER",
    "NullTracer",
    "OBS_CONTEXT_PARAM",
    "Probe",
    "Process",
    "Resource",
    "RngRegistry",
    "Span",
    "SpanSink",
    "Store",
    "TIMED_OUT",
    "Timeout",
    "TraceContext",
    "Tracer",
    "attach",
    "jittered",
]
