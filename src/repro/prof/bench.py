"""The seeded benchmark suite behind the CI perf gate.

Each scenario below runs a deterministic simulated workload with
tracing and op counters attached and reduces it to a
:class:`~repro.prof.profile.Profile`.  The checked-in baselines under
``benchmarks/baselines/`` are regenerated with ``python -m repro.prof
bench --update``; a plain ``bench`` run re-profiles every scenario,
diffs against its baseline, and fails on regression — that, run twice
and ``cmp``-ed, is the CI ``perf`` job.

Simulated numbers only: host time is measured by ``benchmarks/wall``
(see its README), from outside the program, and the perf trajectory
lives in the ``BENCH_*.json`` files that harness records.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.errors import ReproError
from repro.gram.states import JobState
from repro.gridenv import DEFAULT_EXECUTABLE, Grid, GridBuilder
from repro.prof.diff import ProfileDiff, diff_profiles
from repro.prof.profile import Profile, profile_grid

#: Default root seed for the suite (matches the chaos harness).
DEFAULT_SEED = 42

#: Where the checked-in baselines live, relative to the repo root.
BASELINE_DIR = Path("benchmarks") / "baselines"


@dataclass(frozen=True)
class Scenario:
    """One named, seeded workload producing a profile."""

    name: str
    description: str
    build: Callable[[int], Profile]

    def run(self, seed: int) -> Profile:
        return self.build(seed)


def _meta(name: str, seed: int) -> dict[str, Any]:
    return {"source": "repro.prof.bench", "scenario": name, "seed": seed}


def _profiled_builder(seed: int) -> GridBuilder:
    return GridBuilder(seed=seed).with_profiling()


def _run_fig3_gram(seed: int) -> Profile:
    """Fig. 3 shape: one single-process GRAM submission, to ACTIVE."""
    grid = _profiled_builder(seed).add_machine("origin", nodes=64).build()
    client = grid.gram_client()
    contact = grid.site("origin").contact
    rsl = (
        f"&(resourceManagerContact={contact})"
        f"(count=1)(executable={DEFAULT_EXECUTABLE})"
    )

    def scenario(env):
        handle = yield from client.submit(contact, rsl)
        yield from client.wait_for_state(handle, JobState.ACTIVE, poll=0.005)

    grid.run(grid.process(scenario(grid.env)))
    return profile_grid(grid, meta=_meta("fig3_gram", seed))


def _coallocate(grid: Grid, request) -> None:
    duroc = grid.duroc()

    def agent(env):
        job = duroc.submit(request)
        yield from job.commit()
        yield from job.wait_done()

    grid.run(grid.process(agent(grid.env)))


def _figure1_request(grid: Grid):
    from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType

    def spec(site: str, count: int, start_type: SubjobType) -> SubjobSpec:
        return SubjobSpec(
            contact=grid.site(site).contact,
            count=count,
            executable=DEFAULT_EXECUTABLE,
            start_type=start_type,
        )

    return CoAllocationRequest([
        spec("RM1", 1, SubjobType.REQUIRED),
        spec("RM2", 4, SubjobType.INTERACTIVE),
        spec("RM3", 4, SubjobType.INTERACTIVE),
    ])


def _run_figure1(seed: int) -> Profile:
    """The quickstart shape: a three-subjob DUROC co-allocation."""
    grid = (
        _profiled_builder(seed)
        .add_machine("RM1", nodes=16)
        .add_machine("RM2", nodes=64)
        .add_machine("RM3", nodes=64)
        .build()
    )
    _coallocate(grid, _figure1_request(grid))
    return profile_grid(grid, meta=_meta("figure1", seed))


def _run_duroc_scaling(seed: int) -> Profile:
    """Fig. 4 shape: co-allocation across six sites (cost vs. fan-out)."""
    from repro.core.request import CoAllocationRequest, SubjobSpec, SubjobType

    builder = _profiled_builder(seed)
    sites = [f"RM{i}" for i in range(1, 7)]
    for site in sites:
        builder.add_machine(site, nodes=16)
    grid = builder.build()
    request = CoAllocationRequest([
        SubjobSpec(
            contact=grid.site(site).contact,
            count=2,
            executable=DEFAULT_EXECUTABLE,
            start_type=SubjobType.REQUIRED,
        )
        for site in sites
    ])
    _coallocate(grid, request)
    return profile_grid(grid, meta=_meta("duroc_scaling", seed))


def _run_campaign_baseline(seed: int) -> Profile:
    """The chaos harness's clean Figure-1 trial, profiled."""
    from repro.resilience.campaign import CAMPAIGNS, profile_trial

    profile = profile_trial(CAMPAIGNS["baseline"], seed)
    profile.meta.update(_meta("campaign_baseline", seed))
    return profile


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "fig3_gram",
            "single-process GRAM submission (the Fig. 3 cost breakdown)",
            _run_fig3_gram,
        ),
        Scenario(
            "figure1",
            "three-subjob DUROC co-allocation (the quickstart shape)",
            _run_figure1,
        ),
        Scenario(
            "duroc_scaling",
            "six-subjob required co-allocation (the Fig. 4 shape)",
            _run_duroc_scaling,
        ),
        Scenario(
            "campaign_baseline",
            "clean fault-campaign trial under the retrying agent",
            _run_campaign_baseline,
        ),
    )
}


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
        profile = scenario.run(seed)
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
        scenario.run(seed).write(Path(baseline_dir) / f"{scenario.name}.json")
        for scenario in select_scenarios(names)
    ]
