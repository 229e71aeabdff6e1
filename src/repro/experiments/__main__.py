"""Regenerate the paper's tables: the one generator of ``results/*.txt``.

Usage::

    python -m repro.experiments                    # print every table
    python -m repro.experiments fig4 fig5          # a subset
    python -m repro.experiments --write results/   # and write each file
    python -m repro.experiments --help             # the artifact names

:data:`ARTIFACTS` maps each artifact name to the file or files it
writes under the ``--write`` directory.  Without ``--write`` nothing is
written.  CI runs ``--write results/`` and fails if ``results/``
differs from git.
"""

from __future__ import annotations

import functools
import pathlib
import sys
from typing import Callable

from repro.experiments import (
    ablations,
    apps,
    fig2,
    fig3,
    fig4,
    fig5,
    forecast,
    model,
    mpi_startup,
    queues,
    reservations,
)
from repro.obs.query import build_forest, summarize
from repro.obs.render import render_gantt, render_summary, render_tree
from repro.prof.bench import DEFAULT_SEED, SCENARIOS, profile_scenario
from repro.prof.cli import render_profile
from repro.workloads.scenarios import TRACED_COALLOCATION, run


@functools.cache
def _traced_coallocation():
    """The tracer of the three-subjob request the ``obs`` tables read."""
    grid, _ = run(TRACED_COALLOCATION, 7, {"trace"})
    return grid.tracer


def _profile(name: str) -> str:
    return render_profile(profile_scenario(SCENARIOS[name], DEFAULT_SEED))


#: Artifact name -> {file written under the ``--write`` directory: its renderer}.
ARTIFACTS: dict[str, dict[str, Callable[[], str]]] = {
    "fig2": {"fig2_gram_latency.txt": lambda: fig2.render(fig2.run_fig2())},
    "fig3": {"fig3_gram_breakdown.txt": lambda: fig3.render(fig3.run_fig3())},
    "fig4": {
        "fig4_duroc_scaling.txt": lambda: fig4.render(fig4.run_fig4()),
        "fig4_process_insensitivity.txt": lambda: fig4.render_process_insensitivity(
            fig4.run_process_insensitivity()
        ),
    },
    "fig5": {"fig5_timeline.txt": lambda: fig5.render(fig5.run_fig5())},
    "model": {"model_barrier_wait.txt": lambda: model.render(model.run_model())},
    "app-sf": {
        "app_sf_express_sweep.txt": lambda: apps.render_sweep(apps.sweep_failure_rate())
    },
    "app-restart": {
        "app_restart_cost.txt": lambda: apps.render_restart(apps.sweep_startup_cost())
    },
    "app-motivating": {
        "app_motivating.txt": lambda: apps.render_motivating(apps.run_motivating())
    },
    "app-tomo": {
        "app_microtomography.txt": lambda: apps.render_microtomography(
            apps.run_microtomography()
        )
    },
    "app-mpi": {
        "app_mpi_startup.txt": lambda: mpi_startup.render(mpi_startup.run_mpi_startup())
    },
    "resv": {
        "reservation_vs_best_effort.txt": lambda: reservations.render(
            reservations.run_reservation_experiment()
        )
    },
    "forecast": {
        "forecast_staleness.txt": lambda: forecast.render(
            forecast.run_forecast_experiment()
        )
    },
    "queues": {
        "queue_decomposition.txt": lambda: queues.render(queues.run_queue_experiment())
    },
    "ablation-submission": {
        "ablation_concurrent_submission.txt": lambda: ablations.render_submission(
            ablations.run_submission_ablation()
        )
    },
    "ablation-barrier": {
        "ablation_barrier.txt": lambda: ablations.render_barrier(
            ablations.run_barrier_ablation()
        )
    },
    "ablation-overallocation": {
        "ablation_overallocation.txt": lambda: ablations.render_overallocation(
            ablations.run_overallocation_ablation()
        )
    },
    "obs": {
        "obs_timeline.txt": lambda: render_gantt(
            _traced_coallocation().spans,
            _traced_coallocation().marks,
            title="Trace timeline (Fig. 5)",
        ),
        "obs_summary.txt": lambda: render_summary(summarize(_traced_coallocation().spans)),
        "obs_tree.txt": lambda: render_tree(build_forest(_traced_coallocation().spans)),
    },
    "prof": {
        "prof_fig3_profile.txt": lambda: _profile("fig3_gram"),
        "prof_figure1_profile.txt": lambda: _profile("figure1"),
    },
}

USAGE = f"usage: python -m repro.experiments [{{{','.join(ARTIFACTS)}}} ...] [--write DIR]"


class _UsageError(Exception):
    pass


def _parse(argv: list[str]) -> tuple[list[str], pathlib.Path | None]:
    """(artifact names, the ``--write`` directory, made, or None)."""
    names = list(argv)
    out = None
    if "--write" in names:
        at = names.index("--write")
        if at + 1 == len(names) or not names[at + 1]:
            raise _UsageError("argument --write: expected a directory")
        out = pathlib.Path(names.pop(at + 1))
        names.pop(at)
    unknown = [name for name in names if name not in ARTIFACTS]
    if unknown:
        raise _UsageError(f"unknown artifacts {unknown}; choose from {sorted(ARTIFACTS)}")
    if out is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a regular file, or a path through one
            raise _UsageError(
                f"argument --write: cannot make directory {str(out)!r}: {exc.strerror}"
            ) from None
    return names or list(ARTIFACTS), out


def main(argv: list[str]) -> int:
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return 0
    try:
        wanted, out = _parse(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in wanted:
        print(f"=== {name} " + "=" * (60 - len(name)))
        for filename, render in ARTIFACTS[name].items():
            text = render()
            print(text)
            print()
            if out is not None:
                (out / filename).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
