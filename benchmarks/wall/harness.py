"""Measure one workload: repeats, calibration, spans, the traced pass.

One call of :func:`end_to_end` or :func:`per_layer` is one interpreter's
worth of work on one workload; the command line starts a fresh
interpreter for each so that peak RSS belongs to the workload alone.

A *repeat* is ``generate → build → run → check`` on the same seed, with
a calibration loop before and after (the one after a repeat is the one
before the next).  A pass has one calibration time — :func:`clock.quiet`
over all its loops — and its end-to-end times are ``quiet`` over the
untraced repeats, in reference seconds.  The layer pass adds one more
repeat under ``cProfile`` and never feeds an end-to-end number.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from statistics import median
from typing import Any, Iterator, Optional, Sequence

from benchmarks.wall import clock, layers
from benchmarks.wall.metrics import PER_LAYER_NAMES
from benchmarks.wall.workloads import Workload

#: Fresh interpreters timed for the import part of ``setup_s``.
IMPORT_SAMPLES = 5
#: Fewest untraced repeats behind an end-to-end number.
MIN_REPEATS = 3
#: Untraced repeats of the layer pass (it needs a time to compare the
#: traced repeat with, not a gate-quality number).
LAYER_PASS_REPEATS = 2


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    #: Shared by every span of one repeat; ``None`` above the repeats.
    repeat: Optional[int]
    start: float
    end: float = 0.0


class SpanLog:
    """The harness's own spans, kept in memory until the workload ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    @contextmanager
    def span(
        self, name: str, parent: Optional[Span] = None, repeat: Optional[int] = None
    ) -> Iterator[Span]:
        span = Span(
            id=len(self.spans) + 1,
            parent=parent.id if parent is not None else None,
            name=name,
            repeat=repeat,
            start=clock.now(),
        )
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = clock.now()

    def as_json(self) -> list[dict[str, Any]]:
        return [asdict(span) for span in self.spans]


def duration(span: Span) -> float:
    return span.end - span.start


@dataclass
class Repeat:
    """One repeat's raw and calibrated times and its output."""

    workload: str
    index: int
    traced: bool
    attempted: int
    failed: int
    digest: str
    setup_raw_s: float
    run_raw_s: float
    peak_rss_mb: float
    facts: dict[str, float] = field(default_factory=dict)
    #: Run to fill caches and finish lazy imports; not measured.
    warm_up: bool = False
    #: Reference seconds, filled in by :meth:`Session.finish`.
    setup_ref_s: float = 0.0
    run_ref_s: float = 0.0


class Session:
    """The repeats of one interpreter, sharing spans and calibrations."""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.log = SpanLog()
        self.repeats: list[Repeat] = []
        #: Every calibration loop of the pass, in order.
        self.calibs: list[float] = []

    def calibrate(self, parent: Span, repeat: Optional[int] = None) -> None:
        with self.log.span("calibrate", parent, repeat):
            self.calibs.append(clock.calibrate())

    def repeat(
        self,
        workload: Workload,
        parent: Span,
        profiler: Optional[cProfile.Profile] = None,
    ) -> Repeat:
        """Run ``workload`` once more; under ``profiler`` if given."""
        index = len(self.repeats)
        log = self.log
        gc.collect()
        with log.span("repeat", parent, index) as top:
            if not self.calibs:
                self.calibrate(top, index)
            clock.reset_peak_rss()
            if profiler is not None:
                profiler.enable()
            try:
                with log.span("generate", top, index) as generate:
                    inputs = workload.generate(
                        self.seed, max(1, int(workload.load * self.scale))
                    )
                with log.span("build", top, index) as build:
                    world = workload.build(inputs)
                with log.span("run", top, index) as run:
                    outcome = workload.run(world)
            finally:
                if profiler is not None:
                    profiler.disable()
            peak_rss = clock.peak_rss_mb()
            self.calibrate(top, index)
            with log.span("check", top, index):
                failed = workload.check(inputs, outcome)
        record = Repeat(
            workload=workload.name,
            index=index,
            traced=profiler is not None,
            attempted=inputs["ops"],
            failed=failed,
            digest=hashlib.sha256(
                repr((outcome.ops, outcome.signature)).encode()
            ).hexdigest()[:16],
            setup_raw_s=duration(generate) + duration(build),
            run_raw_s=duration(run),
            peak_rss_mb=peak_rss,
            facts=outcome.facts,
        )
        self.repeats.append(record)
        return record

    def finish(self) -> float:
        """Put every repeat in reference seconds; returns the pass's calibration."""
        calib = clock.quiet(self.calibs)
        for record in self.repeats:
            record.setup_ref_s = clock.to_reference(record.setup_raw_s, calib)
            record.run_ref_s = clock.to_reference(record.run_raw_s, calib)
        return calib

    def warm_up(self, workload: Workload, parent: Span) -> None:
        """A quarter-load repeat that no statistic uses."""
        full, self.scale = self.scale, self.scale / 4
        try:
            self.repeat(workload, parent).warm_up = True
        finally:
            self.scale = full

    def of(self, workload: Workload, traced: bool = False) -> list[Repeat]:
        """The measured repeats of ``workload``, traced or untraced."""
        return [
            r for r in self.repeats
            if r.workload == workload.name and r.traced == traced and not r.warm_up
        ]


def _fresh_import(modules: Sequence[str]) -> None:
    """Import ``modules`` in a fresh interpreter and wait for it to exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)], env=env, check=True
    )


def _spread(values: list[float]) -> float:
    """(max - min) / median: how far apart a handful of values lie."""
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def _verdict(repeats: list[Repeat]) -> dict[str, Any]:
    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats)
    # Every repeat of a workload, traced or not, simulated the same thing.
    stable = len({(r.workload, r.digest) for r in repeats}) == len(
        {r.workload for r in repeats}
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "sim_digest_stable": int(stable),
        "correct": failed == 0 and stable,
    }


def end_to_end(
    workload: Workload, seed: int, seconds: float, quick: bool = False
) -> dict[str, Any]:
    """The gated pass: no profiler, quiet quartiles over repeats."""
    session = Session(seed, scale=0.25 if quick else 1.0)
    log = session.log
    with log.span("workload") as top:
        # The import part of setup, between calibrations like a repeat.
        imports = []
        for _ in range(1 if quick else IMPORT_SAMPLES):
            session.calibrate(top)
            with log.span("import", top) as importing:
                _fresh_import(workload.modules)
            imports.append(duration(importing))
        if not quick:
            # Lazy imports, warm caches: paid once per process, not per op.
            session.warm_up(workload, top)
        started = clock.now()
        while True:
            session.repeat(workload, top)
            done = len(session.of(workload))
            if quick or (done >= MIN_REPEATS and clock.now() - started >= seconds):
                break
    calib = session.finish()
    repeats = session.of(workload)
    ops = repeats[0].attempted
    per_repeat = [ops / r.run_ref_s for r in repeats]
    setup = clock.to_reference(clock.quiet(imports), calib) + clock.quiet(
        r.setup_ref_s for r in repeats
    )
    result = _verdict(repeats)
    result.update(
        workload=workload.name,
        seed=seed,
        ops_per_repeat=ops,
        end_to_end={
            "ops_per_ref_s": {
                "value": ops / clock.quiet(r.run_ref_s for r in repeats),
                "min": min(per_repeat), "max": max(per_repeat), "n": len(repeats),
            },
            # The smallest: fragmentation left by earlier repeats only adds.
            "peak_rss_mb": {
                "value": min(r.peak_rss_mb for r in repeats), "n": len(repeats),
            },
            "setup_s": {"value": setup, "n": len(repeats)},
        },
        calib_s=calib,
        calibs_s=session.calibs,
        imports_raw_s=imports,
        repeats=[asdict(r) for r in repeats],
    )
    return result


def per_layer(workload: Workload, seed: int, quick: bool = False) -> dict[str, Any]:
    """The layer pass: a few untraced repeats, then one under cProfile."""
    session = Session(seed, scale=0.25 if quick else 1.0)
    log = session.log
    companion = workload.companion
    profiler = cProfile.Profile()
    with log.span("workload") as top:
        if not quick:
            session.warm_up(workload, top)
        for _ in range(1 if quick else LAYER_PASS_REPEATS):
            session.repeat(workload, top)
            if companion is not None:
                session.repeat(companion, top)
        traced = session.repeat(workload, top, profiler)
    calib = session.finish()

    untraced = session.of(workload)
    stats = layers.stats_table(profiler)
    folded = layers.fold(stats)
    counts = layers.named_counts(stats)
    ops = traced.attempted
    run_ref = clock.quiet(r.run_ref_s for r in untraced)
    run_raw = clock.quiet(r.run_raw_s for r in untraced)

    def per(count: float, base: float) -> float:
        return count / base if base else 0.0

    scheduled = counts["simcore.events_scheduled"]
    processed = counts["simcore.events_processed"]
    # Every declared name, 0 where the workload has no such count or fact.
    metrics: dict[str, float] = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    metrics.update(
        (f"{layer}.{key}", value)
        for layer, row in folded.items() for key, value in row.items()
    )
    metrics.update(
        (name, float(count)) for name, count in counts.items() if name in metrics
    )
    metrics.update({
        "simcore.events_per_op": per(processed, ops),
        "simcore.cancelled_frac": per(scheduled - processed, scheduled),
        "simcore.ref_us_per_event": per(run_ref * 1e6, processed),
        "simcore.store_grant_attempts_per_get": per(
            counts["simcore.store_grant_attempts"], counts["simcore.store_gets"]
        ),
        "net.messages_per_op": per(counts["net.messages_sent"], ops),
        "net.rpc_per_op": per(counts["net.rpc_calls"], ops),
        "gram.jobs_per_op": per(counts["gram.submits"], ops),
        "bench.raw_ops_per_s": per(ops, run_raw),
        "bench.calib_s": calib,
        "bench.calib_spread": _spread(session.calibs),
        "bench.repeat_spread": _spread([r.run_ref_s for r in untraced]),
        "bench.trace_overhead_ratio": per(traced.run_ref_s, run_ref),
    })
    # Facts come from the untraced repeats: a timed one must not be a
    # profiled one, and the rest are the same on every repeat.
    metrics.update(untraced[-1].facts)
    if companion is not None:
        bare = clock.quiet(r.run_ref_s / r.attempted for r in session.of(companion))
        metrics["obs.overhead_ratio"] = per(run_ref / ops, bare)

    result = _verdict([r for r in session.repeats if not r.warm_up])
    result.update(
        workload=workload.name,
        seed=seed,
        ops_per_repeat=ops,
        per_layer=metrics,
        profile_total_s=sum(row[2] for row in stats.values()),
        repeats=[asdict(r) for r in session.repeats],
        spans=log.as_json(),
        collapsed=layers.collapsed(stats),
    )
    return result
