"""The seeded benchmark suite behind the CI perf gate.

Each entry of :data:`SCENARIOS` is a
:class:`~repro.workloads.scenarios.Scenario`, run under
``observe={"profile"}`` and reduced to a
:class:`~repro.prof.profile.Profile` by
:func:`~repro.prof.profile.profile_grid`.  The checked-in baselines under
``benchmarks/baselines/`` are regenerated with ``python -m repro.prof
bench --update``; a plain ``bench`` run re-profiles every scenario,
diffs against its baseline, and fails on regression — that, run twice
and ``cmp``-ed, is the CI ``perf`` job.

Simulated numbers only: host time is measured by ``benchmarks/wall``
(see its README), from outside the program, and the perf trajectory
lives in the ``BENCH_*.json`` files that harness records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Generator, Optional, Sequence

from repro.core.request import CoAllocationRequest, SubjobType
from repro.errors import ReproError
from repro.gram.states import JobState
from repro.gridenv import DEFAULT_EXECUTABLE, Grid
from repro.prof.diff import ProfileDiff, diff_profiles
from repro.prof.profile import Profile, profile_grid
from repro.resilience.campaign import CAMPAIGNS
from repro.workloads.scenarios import FIGURE1, Scenario, coallocate, request_on, run

#: Default root seed for the suite (matches the chaos harness).
DEFAULT_SEED = 42

#: Where the checked-in baselines live, relative to the repo root.
BASELINE_DIR = Path("benchmarks") / "baselines"


def _fig3_gram(grid: Grid) -> Generator[Any, Any, None]:
    client = grid.gram_client()
    contact = grid.site("origin").contact
    rsl = (
        f"&(resourceManagerContact={contact})"
        f"(count=1)(executable={DEFAULT_EXECUTABLE})"
    )

    def scenario(env: Any) -> Generator[Any, Any, None]:
        handle = yield from client.submit(contact, rsl)
        yield from client.wait_for_state(handle, JobState.ACTIVE, poll=0.005)

    return scenario(grid.env)


def _six_sites(grid: Grid) -> CoAllocationRequest:
    return request_on(grid, *(
        (site, 2, DEFAULT_EXECUTABLE, SubjobType.REQUIRED, None)
        for site, _ in DUROC_SCALING.sites
    ))


DUROC_SCALING = Scenario(
    "duroc_scaling",
    "six-subjob required co-allocation (the Fig. 4 shape)",
    sites=tuple((f"RM{i}", 16) for i in range(1, 7)),
    drive=coallocate(_six_sites),
)

#: The suite, by name.  ``campaign_baseline`` is the chaos harness's
#: clean trial; its profile records which campaign it replays.
SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "fig3_gram",
            "single-process GRAM submission (the Fig. 3 cost breakdown)",
            sites=(("origin", 64),),
            drive=_fig3_gram,
        ),
        FIGURE1,
        DUROC_SCALING,
        replace(
            CAMPAIGNS["baseline"].scenario(),
            name="campaign_baseline",
            description="clean fault-campaign trial under the retrying agent",
        ),
    )
}


def profile_scenario(scenario: Scenario, seed: int) -> Profile:
    """Run ``scenario`` with op counters attached; reduce it to a profile."""
    grid, _ = run(scenario, seed, {"profile"})
    meta = {"source": "repro.prof.bench", "scenario": scenario.name, "seed": seed}
    if scenario.name == "campaign_baseline":
        meta["campaign"] = "baseline"
    return profile_grid(grid, meta=meta)


def select_scenarios(names: Optional[Sequence[str]] = None) -> list[Scenario]:
    if not names:
        return [SCENARIOS[name] for name in sorted(SCENARIOS)]
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ReproError(
            f"unknown scenario(s) {unknown}; pick from {sorted(SCENARIOS)}"
        )
    return [SCENARIOS[name] for name in names]


@dataclass(frozen=True)
class BenchResult:
    """One scenario's run: its profile and the baseline comparison."""

    scenario: Scenario
    profile: Profile
    baseline: Optional[Profile]
    diff: Optional[ProfileDiff]

    @property
    def regressed(self) -> bool:
        return self.diff is not None and bool(self.diff.regressions)

    @property
    def missing_baseline(self) -> bool:
        return self.baseline is None


def _load_baseline(path: Path) -> Optional[Profile]:
    """The committed baseline at ``path``, or None if there is none."""
    if not path.is_file():
        return None
    try:
        return Profile.load(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ReproError(f"cannot load baseline {path}: {exc}") from None


def run_bench(
    seed: int = DEFAULT_SEED,
    names: Optional[Sequence[str]] = None,
    baseline_dir: Path = BASELINE_DIR,
    threshold_pct: float = 10.0,
) -> list[BenchResult]:
    """Run the selected scenarios and diff each against its baseline."""
    results = []
    for scenario in select_scenarios(names):
        profile = profile_scenario(scenario, seed)
        baseline = _load_baseline(Path(baseline_dir) / f"{scenario.name}.json")
        diff = (
            diff_profiles(baseline, profile, threshold_pct=threshold_pct)
            if baseline is not None
            else None
        )
        results.append(BenchResult(scenario, profile, baseline, diff))
    return results


def update_baselines(
    seed: int = DEFAULT_SEED,
    names: Optional[Sequence[str]] = None,
    baseline_dir: Path = BASELINE_DIR,
) -> list[Path]:
    """Regenerate the checked-in baselines; returns the paths written."""
    return [
        profile_scenario(scenario, seed).write(Path(baseline_dir) / f"{scenario.name}.json")
        for scenario in select_scenarios(names)
    ]
