"""Regenerate every paper artifact from the command line.

Usage::

    python -m repro.experiments            # everything (few minutes)
    python -m repro.experiments fig4 fig5  # a subset
    python -m repro.experiments --help     # the artifact names

Artifacts are printed and written to ``results/``.
"""

from __future__ import annotations

import pathlib
import sys

from repro.experiments import (
    apps,
    fig2,
    fig3,
    fig4,
    fig5,
    forecast,
    model,
    queues,
    reservations,
)


def _artifacts() -> dict[str, callable]:
    return {
        "fig2": lambda: fig2.render(fig2.run_fig2()),
        "fig3": lambda: fig3.render(fig3.run_fig3()),
        "fig4": lambda: fig4.render(fig4.run_fig4()),
        "fig5": lambda: fig5.render(fig5.run_fig5()),
        "model": lambda: model.render(model.run_model()),
        "app-sf": lambda: apps.render_sweep(apps.sweep_failure_rate()),
        "app-restart": lambda: apps.render_restart(apps.sweep_startup_cost()),
        "app-motivating": lambda: str(apps.run_motivating()),
        "app-tomo": lambda: str(apps.run_microtomography()),
        "resv": lambda: reservations.render(
            reservations.run_reservation_experiment()
        ),
        "forecast": lambda: forecast.render(forecast.run_forecast_experiment()),
        "queues": lambda: queues.render(queues.run_queue_experiment()),
    }


def main(argv: list[str]) -> int:
    artifacts = _artifacts()
    if "-h" in argv or "--help" in argv:
        print(f"usage: python -m repro.experiments [{{{','.join(artifacts)}}} ...]")
        return 0
    wanted = argv or list(artifacts)
    unknown = [name for name in wanted if name not in artifacts]
    if unknown:
        print(
            f"error: unknown artifacts {unknown}; choose from {sorted(artifacts)}",
            file=sys.stderr,
        )
        return 2
    results = pathlib.Path("results")
    results.mkdir(exist_ok=True)
    for name in wanted:
        print(f"=== {name} " + "=" * (60 - len(name)))
        text = artifacts[name]()
        print(text)
        print()
        (results / f"cli_{name}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
