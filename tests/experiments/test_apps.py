"""Shape tests for the application-experience experiments (§4.3)."""

import math
from pathlib import Path

import pytest

from repro.experiments import apps, reservations

RESULTS = Path(__file__).resolve().parents[2] / "results"
RESTART_TABLE = RESULTS / "app_restart_cost.txt"


def restart_cells(table: str) -> dict[float, list[float]]:
    """startup -> every cell of each row of a rendered restart table."""
    # Title, header and rule come first; a "failed" cell fails float().
    rows = [
        [float(cell) for cell in line.split("|")]
        for line in table.splitlines()[3:]
    ]
    return {cells[0]: cells for cells in rows}


class TestMotivating:
    def test_paper_narrative_reproduced(self):
        """Crashed machine substituted, slow machine dropped, reduced
        fidelity, computation proceeds."""
        result = apps.run_motivating()
        assert result.success
        assert result.substitutions == 1   # sim2 -> sim6
        assert result.dropped == 1         # sim5 missed its deadline
        assert result.processes == 320     # 4 of 5 x 80: reduced fidelity

    def test_substitution_went_to_the_spare(self):
        result = apps.run_motivating()
        assert any("sim6" in line for line in result.log)


class TestMicrotomography:
    def test_optional_displays_join_late(self):
        result = apps.run_microtomography()
        assert result.success
        # Instrument + five compute machines released together.
        assert result.released_sizes == (1, 16, 16, 16, 16, 16)
        assert result.optional_joined_late == 2


class TestFailureSweep:
    @pytest.fixture(scope="class")
    def summary(self):
        rows = apps.sweep_failure_rate(
            probabilities=(0.0, 0.2), seeds=(0, 1)
        )
        return {
            (p, strategy): (success, time, attempts, subs, procs)
            for p, strategy, success, time, attempts, subs, procs
            in apps.summarize_sweep(rows)
        }

    def test_no_failures_strategies_tie(self, summary):
        atomic = summary[(0.0, "atomic")]
        interactive = summary[(0.0, "interactive")]
        assert atomic[0] == interactive[0] == 1.0
        assert atomic[1] == pytest.approx(interactive[1], rel=0.05)

    def test_interactive_always_single_attempt(self, summary):
        assert summary[(0.2, "interactive")][2] == 1.0

    def test_atomic_needs_restarts_under_failures(self, summary):
        assert summary[(0.2, "atomic")][2] > 1.0

    def test_interactive_starts_sooner_under_failures(self, summary):
        atomic_time = summary[(0.2, "atomic")][1]
        interactive_time = summary[(0.2, "interactive")][1]
        assert interactive_time < atomic_time


class TestRestartCost:
    @pytest.fixture(scope="class")
    def rows(self):
        return apps.sweep_startup_cost(startup_times=(30.0, 120.0))

    def test_atomic_restarts_cost_multiples(self, rows):
        for row in rows:
            assert row.time_penalty > 1.5

    def test_atomic_wastes_more_work(self, rows):
        for row in rows:
            assert row.atomic_waste > row.interactive_waste

    def test_absolute_gap_grows_with_startup(self, rows):
        gaps = [r.atomic_time - r.interactive_time for r in rows]
        assert gaps[1] > gaps[0] * 2  # startup quadrupled, gap grows

    def test_render(self, rows):
        assert "atomic" in apps.render_restart(rows)

    def test_rows_match_the_committed_table(self, rows):
        measured = restart_cells(apps.render_restart(rows))
        committed = restart_cells(RESTART_TABLE.read_text())
        assert sorted(measured) == [30.0, 120.0]
        for startup, cells in measured.items():
            assert cells == pytest.approx(committed[startup], rel=1e-6)


class TestReservations:
    @pytest.fixture(scope="class")
    def rows(self):
        """Per seed, the runs ``results/reservation_vs_best_effort.txt``
        averages."""
        return reservations.run_reservation_experiment(seeds=(0, 1, 2))

    def test_rows_make_the_committed_table(self, rows):
        committed = (RESULTS / "reservation_vs_best_effort.txt").read_text()
        assert reservations.render(rows) + "\n" == committed

    def test_both_strategies_succeed(self, rows):
        assert all(r.success for r in rows)

    def test_reservation_eliminates_barrier_idle(self, rows):
        for r in rows:
            if r.strategy == "reservation":
                assert r.barrier_idle_node_seconds == pytest.approx(0.0, abs=1.0)

    def test_best_effort_wastes_node_seconds(self, rows):
        waste = [
            r.barrier_idle_node_seconds
            for r in rows
            if r.strategy == "best-effort"
        ]
        assert all(w > 100.0 for w in waste)

    def test_summary_no_nans_on_success(self, rows):
        for entry in reservations.summarize(rows):
            assert not math.isnan(entry[2])
