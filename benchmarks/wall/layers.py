"""Fold a ``cProfile`` run into this repo's layers.

A layer is a package of ``repro`` (the names the ROADMAP uses), plus
``repro_other`` for the glue outside them (``gridenv``, ``experiments``,
``workloads``, ``analysis``), ``bench`` for the observatory's own files
and ``python`` for everything else: builtins, the standard library,
numpy, dataclass-generated ``<string>`` code.  Self time (``tottime``)
is attributed to the layer that owns the function's file, so every
microsecond of the profile lands in exactly one layer and the layer
sums add up to the profile's total.

Named counts are the ``ncalls`` of one public function each.  cProfile
counts every *resume* of a generator as a call, so a generator API
(``rpc.call``, ``gsi.auth.initiate``, ``GramClient.submit``) is counted
through a plain function it calls exactly once per invocation.
"""

from __future__ import annotations

import importlib
import os
import pstats
from typing import Iterable, Mapping, Optional

import repro

#: ``repro`` packages that are layers in their own right.
PACKAGE_LAYERS = (
    "simcore", "net", "gsi", "rsl", "gram", "schedulers", "machine",
    "core", "broker", "mds", "obs", "prof", "verify", "resilience",
)
LAYERS = PACKAGE_LAYERS + ("repro_other", "python", "bench")

_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_ROOT = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: pstats rows: (file, line, function) -> (primitive calls, calls,
#: tottime, cumtime, callers).
StatsTable = Mapping[tuple[str, int, str], tuple]

#: Count name -> the ``module:qualname`` functions whose calls it sums.
COUNTED = {
    "simcore.events_scheduled": ("repro.simcore.environment:Environment.schedule",),
    "simcore.events_processed": ("repro.simcore.environment:Environment.step",),
    "simcore.store_grant_attempts": ("repro.simcore.resources:Store._try_grant",),
    "simcore.store_gets": ("repro.simcore.resources:Store.get",),
    "net.messages_sent": ("repro.net.network:Network.send",),
    # One correlation id per rpc.call.
    "net.rpc_calls": ("repro.net.transport:Port.next_corr_id",),
    # One credential verification per handshake that reached a server.
    "gsi.handshakes": ("repro.gsi.credentials:CertificateAuthority.verify",),
    "rsl.parses": ("repro.rsl.parser:parse",),
    # One contact resolution per GramClient.submit.
    "gram.submits": ("repro.gram.client:contact_endpoint",),
    "schedulers.submits": (
        "repro.schedulers.base:LocalScheduler.submit",
        "repro.schedulers.fcfs:FcfsScheduler.submit",
        "repro.schedulers.fork:ForkScheduler.submit",
    ),
    "machine.spawns": ("repro.machine.host:Machine.spawn",),
    # Grab allocates through a Duroc of its own, so this covers both.
    "core.submits": ("repro.core.coallocator:Duroc.submit",),
    # A substitute is one delete and one add.
    "core.edits": (
        "repro.core.coallocator:DurocJob.add",
        "repro.core.coallocator:DurocJob.delete",
    ),
    "core.barrier_checkins": ("repro.core.barrier:BarrierManager.record",),
    "obs.spans_recorded": (
        "repro.simcore.tracing:Tracer.span",
        "repro.simcore.tracing:Tracer.record",
    ),
}


def layer_of(filename: str) -> str:
    """The layer that owns code from ``filename``."""
    path = os.path.abspath(filename)
    if path.startswith(_REPRO_ROOT):
        package = path[len(_REPRO_ROOT):].split(os.sep, 1)[0]
        return package if package in PACKAGE_LAYERS else "repro_other"
    if path.startswith(_BENCH_ROOT):
        return "bench"
    return "python"


def fold(stats: StatsTable) -> dict[str, dict[str, float]]:
    """Per layer: ``self_s``, ``self_frac`` and ``calls``."""
    folded = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _, _), (_, calls, tottime, _, _) in stats.items():
        row = folded[layer_of(filename)]
        row["self_s"] += tottime
        row["calls"] += calls
    total = sum(row["self_s"] for row in folded.values())
    for row in folded.values():
        row["self_frac"] = row["self_s"] / total if total else 0.0
    return folded


def _code_key(target: str) -> Optional[tuple[str, int, str]]:
    """The pstats key of ``module:qualname``, or None if the name is gone."""
    module_name, _, qualname = target.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        code = obj.__code__
    except (ImportError, AttributeError):
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def calls_of(stats: StatsTable, targets: Iterable[str]) -> int:
    """Total ``ncalls`` of the named functions (0 for a name that is gone)."""
    keys = set(map(_code_key, targets))
    return sum(stats[key][1] for key in keys if key in stats)


def named_counts(stats: StatsTable) -> dict[str, int]:
    return {name: calls_of(stats, targets) for name, targets in COUNTED.items()}


def collapsed(stats: StatsTable) -> str:
    """The fold as flamegraph text: ``layer;module.function <self µs>``.

    Same shape as :func:`repro.prof.collapse.collapsed_stacks` emits for
    simulated time — two-frame stacks, integer microseconds, sorted —
    so ``repro.prof.collapse.parse_collapsed`` and any flamegraph
    renderer read it.  Functions that share a name within a module are
    summed.
    """
    weights: dict[str, float] = {}
    for (filename, _, function), (_, _, tottime, _, _) in stats.items():
        module = os.path.splitext(os.path.basename(filename))[0]
        frame = f"{module}.{function}".replace(" ", "_").replace(";", ":")
        path = f"{layer_of(filename)};{frame}"
        weights[path] = weights.get(path, 0.0) + tottime
    lines = [f"{path} {int(round(weights[path] * 1e6))}" for path in sorted(weights)]
    return "\n".join(lines) + "\n" if lines else ""


def stats_table(profile) -> StatsTable:
    """The raw table of a finished ``cProfile.Profile``."""
    return pstats.Stats(profile).stats  # type: ignore[attr-defined]
