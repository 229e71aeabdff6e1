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
the :class:`Store` mailbox, and seeded RNG streams.
"""

from repro.simcore.environment import Environment, FOREVER
from repro.simcore.events import AllOf, Event, Timeout
from repro.simcore.probe import FanoutProbe, Probe, attach
from repro.simcore.process import Interrupt, Process
from repro.simcore.resources import TIMED_OUT, Store
from repro.simcore.rng import RngRegistry
from repro.simcore.tracing import (
    NULL_TRACER,
    OBS_CONTEXT_PARAM,
    Mark,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
)

__all__ = [
    "AllOf",
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
    "RngRegistry",
    "Span",
    "Store",
    "TIMED_OUT",
    "Timeout",
    "TraceContext",
    "Tracer",
    "attach",
]
