"""The paper's shape claims, checked on the committed tables.

``python -m repro.experiments --write results/`` regenerates
``results/*.txt`` and CI keeps them equal to git; these tests read them
(no simulation) and assert what each table must show.  CI's ``paper``
job runs this file and ``test_fig4_shape.py`` right after regenerating,
so there they read the fresh bytes, ``forecast_staleness.txt`` included,
whose drift git does not gate.  Fig. 4 has its own file
(``test_fig4_shape.py``); the two narrative tables (``app_motivating``,
``app_microtomography``) are checked in ``test_apps.py`` on the same
default runs the generator renders.  Claims that need values a table
does not print are checked on an in-process run next to the
experiment's other tests.
"""

import math
from pathlib import Path

import pytest

from repro.experiments.__main__ import ARTIFACTS
from repro.experiments.report import linear_fit

RESULTS = Path(__file__).resolve().parents[2] / "results"


def cells(name: str) -> list[list[str]]:
    """The body rows of a ``format_table`` table, one list of cells each."""
    lines = (RESULTS / f"{name}.txt").read_text().splitlines()
    # Title and header come first, then the rule; a closing note has no "|".
    rule = next(i for i, line in enumerate(lines) if set(line) <= {"-", "+"})
    rows = [
        [cell.strip() for cell in line.split("|")]
        for line in lines[rule + 1 :]
        if "|" in line
    ]
    if not rows:
        raise ValueError(f"{name}.txt has no rows")
    return rows


def test_the_generator_writes_exactly_the_committed_tables():
    written = sorted(file for files in ARTIFACTS.values() for file in files)
    assert written == sorted(path.name for path in RESULTS.glob("*.txt"))


def test_fig2_latency_is_flat_in_process_count():
    latencies = [float(latency) for _, latency in cells("fig2_gram_latency")]
    # Flat in process count: < 10% spread between 16 and 64 processes.
    assert max(latencies) / min(latencies) < 1.10
    # Latency dominated by the Fig.-3 cost floor (auth+initgroups+misc).
    for latency in latencies:
        assert 1.2 < latency < 1.5


def test_fig3_breakdown_matches_the_paper():
    by_name = {
        name: (float(measured), float(paper))
        for name, measured, paper in cells("fig3_gram_breakdown")
    }
    for name, (latency, paper) in by_name.items():
        assert latency == pytest.approx(paper, rel=0.05), name
    # Ordering and order-of-magnitude separation hold.
    assert by_name["initgroups()"][0] > by_name["authentication"][0]
    assert by_name["authentication"][0] > 10 * by_name["misc."][0]
    assert by_name["misc."][0] > by_name["fork()"][0]


class TestModel:
    @pytest.fixture(scope="class")
    def rows(self):
        """subjobs, total, avg wait, model total/2, min wait, blocks."""
        return [
            (int(m), float(total), float(avg), float(predicted), float(low), blocks)
            for m, total, avg, predicted, low, blocks in cells("model_barrier_wait")
        ]

    def test_waits_come_in_blocks_from_zero(self, rows):
        for _, _, _, _, min_wait, blocks in rows:
            # Shortest wait always ~zero.
            assert min_wait == pytest.approx(0.0, abs=0.05)
            # Waits occur in per-subjob blocks.
            assert blocks == "yes"

    def test_average_wait_converges_to_half_the_total(self, rows):
        # The model ignores the constant overlapped tail, so small M
        # undershoots.
        for m, _, avg_wait, predicted, _, _ in rows:
            if m >= 8:
                assert avg_wait == pytest.approx(predicted, rel=0.25)
        # Convergence is monotone: the ratio approaches 1 with M.
        ratios = [avg / predicted for _, _, avg, predicted, _, _ in rows]
        assert ratios == sorted(ratios)


class TestSfExpressSweep:
    @pytest.fixture(scope="class")
    def summary(self):
        """(p, strategy) -> (success, mean start, attempts)."""
        return {
            (float(p), strategy): (float(success), float(start), float(attempts))
            for p, strategy, success, start, attempts, _subs, _procs
            in cells("app_sf_express_sweep")
        }

    def test_without_failures_the_strategies_tie(self, summary):
        assert summary[(0.0, "atomic")][1] == pytest.approx(
            summary[(0.0, "interactive")][1], rel=0.05
        )

    def test_interactive_always_completes_in_one_transaction(self, summary):
        for p in (0.1, 0.2, 0.3):
            assert summary[(p, "interactive")][2] == 1.0
            assert summary[(p, "interactive")][0] == 1.0

    def test_atomic_restarts_grow_with_the_failure_rate(self, summary):
        assert summary[(0.2, "atomic")][2] > summary[(0.1, "atomic")][2] > 1.0

    def test_interactive_starts_sooner_whenever_failures_occur(self, summary):
        for p in (0.2, 0.3):
            atomic_time = summary[(p, "atomic")][1]
            interactive_time = summary[(p, "interactive")][1]
            if not math.isnan(atomic_time):
                assert interactive_time < atomic_time


class TestRestartCost:
    @pytest.fixture(scope="class")
    def rows(self):
        """startup, atomic, interactive, penalty, atomic waste, interactive waste."""
        return [[float(cell) for cell in row] for row in cells("app_restart_cost")]

    def test_atomic_restarts_cost_multiples_and_waste_more(self, rows):
        for _, _, _, penalty, atomic_waste, interactive_waste in rows:
            # Atomic restarts cost multiples of the interactive repair.
            assert penalty > 1.5
            # And throw away more started work.
            assert atomic_waste > interactive_waste

    def test_the_absolute_penalty_grows_with_startup(self, rows):
        # "Tens of minutes" startups make restarts tremendous.
        gaps = [atomic - interactive for _, atomic, interactive, *_ in rows]
        assert gaps == sorted(gaps)
        assert gaps[-1] > 10 * gaps[0] * (30.0 / 900.0)


def test_mpi_startup_reconfigures_around_a_dead_machine():
    rows = {scenario: rest for scenario, *rest in cells("app_mpi_startup")}
    _, healthy_size, _ = rows["healthy"]
    _, degraded_size, degraded_agrees = rows["one machine dead"]
    assert healthy_size == "32"
    # The degraded run reconfigured around the dead machine at startup,
    # and every rank's allreduce of 1 came to the world size.
    assert degraded_size == "24"
    assert degraded_agrees == "yes"


def test_forecasts_help_while_they_stay_fresh():
    by_policy = {
        policy: (float(wait), int(completed))
        for policy, wait, completed in cells("forecast_staleness")
    }
    fresh = by_policy["refresh=0s"][0]
    very_stale = by_policy["refresh=1200s"][0]
    random = by_policy["random"][0]
    # All probe co-allocations completed under every policy.
    assert all(completed == 36 for _, completed in by_policy.values())
    # Fresh information clearly beats random selection...
    assert fresh < 0.5 * random
    # ...staleness degrades monotonically...
    forecast_waits = [by_policy[f"refresh={r}s"][0] for r in (0, 60, 300, 1200)]
    assert forecast_waits == sorted(forecast_waits)
    # ...and sufficiently stale information is no better than none.
    assert very_stale > 0.8 * random


def test_queue_waits_dwarf_the_barrier():
    by_scenario = {
        scenario: dict(zip(
            ("total", "submission", "queue", "startup", "skew", "sync"),
            map(float, rest),
        ))
        for scenario, *rest in cells("queue_decomposition")
    }
    fork = by_scenario["fork"]
    queued = by_scenario["queued"]
    # Pure barrier synchronization is negligible everywhere (< 50 ms).
    assert fork["sync"] < 0.05
    assert queued["sync"] < 0.05
    # Fork mode has no queue waits; skew there is the Fig. 4/5
    # submission stagger (same order as the serialized submissions).
    assert fork["queue"] == 0.0
    assert 0.0 < fork["skew"] < 2 * fork["submission"]
    # On loaded batch machines, queue waits dwarf every protocol cost.
    assert queued["queue"] > 20 * fork["total"]
    assert queued["queue"] > 50 * (fork["skew"] + fork["submission"])
    # And the check-in skew there is queue mismatch, not protocol cost.
    assert queued["skew"] > 10 * fork["skew"]


class TestAblations:
    def test_concurrent_submission_flattens_the_curve(self):
        times = {
            int(m): (float(seq), float(conc))
            for m, seq, conc in cells("ablation_concurrent_submission")
        }
        seq_slope, _, _ = linear_fit(list(times), [seq for seq, _ in times.values()])
        conc_slope, _, _ = linear_fit(list(times), [conc for _, conc in times.values()])
        # Sequential is linear (~1.2 s/subjob); concurrent nearly flat.
        assert seq_slope > 1.0
        assert conc_slope < 0.15
        assert times[25][1] < times[25][0] / 5

    def test_the_barrier_saves_the_initialization_an_abort_wastes(self):
        wastes = {discipline: float(waste) for discipline, waste in cells("ablation_barrier")}
        # Eager initialization wastes roughly EXPENSIVE/CHEAP more work.
        assert (
            wastes["eager initialization"] > 10 * wastes["two-phase barrier (paper)"]
        )

    def test_each_spare_skips_one_straggler(self):
        times = {int(extra): float(t) for extra, t in cells("ablation_overallocation")}
        assert times[2] < times[1] < times[0]
