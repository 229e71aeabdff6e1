"""Shape tests for the experiment harnesses (fast configurations).

``python -m repro.experiments`` regenerates the full figures; these
tests assert the paper's qualitative claims hold on reduced sweeps, so
a regression in the protocol implementation is caught in the unit
suite.
"""

from pathlib import Path

import pytest

from repro.experiments import ablations, fig2, fig3, fig4, fig5, model
from repro.experiments.report import format_table, format_timeline, linear_fit

RESULTS = Path(__file__).resolve().parents[2] / "results"
FIG5_TABLE = RESULTS / "fig5_timeline.txt"


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(("a", "bee"), [(1, 2.5), (10, 0.123)])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "0.123" in text

    def test_format_table_with_title(self):
        assert format_table(("x",), [(1,)], title="T").startswith("T")

    def test_format_timeline_renders_bars(self):
        text = format_timeline([("lane", "phase", 0.0, 1.0)])
        assert "#" in text
        assert "lane:phase" in text

    def test_format_timeline_empty(self):
        assert "empty" in format_timeline([])

    def test_linear_fit(self):
        a, b, r2 = linear_fit([1, 2, 3], [3, 5, 7])
        assert a == pytest.approx(2.0)
        assert b == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_linear_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            linear_fit([1], [1])


class TestFig2:
    def test_latency_flat_in_process_count(self):
        rows = fig2.run_fig2(process_counts=(16, 64))
        r16, r64 = rows
        # 48 extra forks at 1 ms: well under 10% of the total.
        assert r64.latency - r16.latency < 0.1
        assert r64.latency / r16.latency < 1.10

    def test_latency_near_cost_model_floor(self):
        (row,) = fig2.run_fig2(process_counts=(16,))
        assert 1.2 < row.latency < 1.4

    def test_render(self):
        rows = fig2.run_fig2(process_counts=(16,))
        assert "Figure 2" in fig2.render(rows)


class TestFig3:
    def test_breakdown_matches_paper(self):
        rows = fig3.run_fig3()
        by_name = {r.operation: r for r in rows}
        assert by_name["initgroups()"].latency == pytest.approx(0.7, rel=0.05)
        assert by_name["authentication"].latency == pytest.approx(0.5, rel=0.05)
        assert by_name["misc."].latency == pytest.approx(0.01, rel=0.1)
        assert by_name["fork()"].latency == pytest.approx(0.001, rel=0.1)

    def test_ordering_matches_paper(self):
        """initgroups > auth > misc > fork, as in Fig. 3."""
        rows = fig3.run_fig3()
        latencies = [r.latency for r in rows]
        assert latencies == sorted(latencies, reverse=True)


class TestFig4:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig4.run_fig4(subjob_counts=(1, 2, 4, 8, 12))

    def test_linear_in_subjobs(self, rows):
        a, b, r2 = linear_fit(
            [r.subjobs for r in rows], [r.duroc_time for r in rows]
        )
        assert r2 > 0.999
        assert 0.9 < a < 1.5  # paper slope ≈ 1.08 s/subjob

    def test_single_subjob_is_about_two_seconds(self, rows):
        assert rows[0].duroc_time == pytest.approx(2.0, abs=0.3)

    def test_pipelining_beats_zero_concurrency(self, rows):
        last = rows[-1]
        assert last.duroc_time < last.zero_concurrency
        savings = fig4.pipelining_savings(rows)
        assert 0.25 < savings < 0.55  # paper: 44%

    def test_insensitive_to_process_count(self):
        t64 = fig4.measure_duroc(subjobs=4, total_processes=64)[0]
        t16 = fig4.measure_duroc(subjobs=4, total_processes=16)[0]
        assert abs(t64 - t16) < 0.2

    def test_avg_barrier_wait_about_half_total(self, rows):
        last = rows[-1]
        assert last.avg_barrier_wait == pytest.approx(
            last.duroc_time / 2, rel=0.25
        )


class TestFig5:
    @pytest.fixture(scope="class")
    def entries(self):
        """The run ``results/fig5_timeline.txt`` draws."""
        return fig5.run_fig5(subjobs=3, total_processes=12)

    def test_entries_draw_the_committed_timeline(self, entries):
        assert fig5.render(entries) + "\n" == FIG5_TABLE.read_text()

    def test_sequential_submission(self, entries):
        assert fig5.sequential_submission_holds(entries)

    def test_all_phases_present_per_subjob(self, entries):
        for lane in ("subjob0", "subjob1", "subjob2"):
            phases = {e.phase for e in entries if e.lane == lane}
            assert phases == {"submit", "fork", "startup", "barrier"}

    def test_barrier_ends_at_release(self, entries):
        release = next(e for e in entries if e.phase == "active").start
        for e in entries:
            if e.phase == "barrier":
                assert e.end == pytest.approx(release, abs=1e-6)

    def test_earlier_subjobs_wait_longer(self, entries):
        waits = {
            e.lane: e.end - e.start for e in entries if e.phase == "barrier"
        }
        assert waits["subjob0"] > waits["subjob1"] > waits["subjob2"] >= 0.0

    def test_startup_overlaps_the_next_submission(self, entries):
        # Pipelining: subjob 0 starts up while subjob 1 is submitted.
        submit1 = next(
            e for e in entries if e.lane == "subjob1" and e.phase == "submit"
        )
        startup0 = next(
            e for e in entries if e.lane == "subjob0" and e.phase == "startup"
        )
        assert startup0.start < submit1.end and submit1.start < startup0.end

    def test_render(self, entries):
        text = fig5.render(entries)
        assert "subjob0:submit" in text


class TestModel:
    def test_model_predictions(self):
        rows = model.run_model(subjob_counts=(8, 16))
        for row in rows:
            # Average wait approaches total/2 (within 25% for M >= 8).
            assert row.avg_wait == pytest.approx(row.predicted_wait, rel=0.25)
            assert row.min_wait == pytest.approx(0.0, abs=0.05)
            assert row.block_structured

    def test_block_structure_detector(self):
        assert model.waits_are_block_structured(
            [(1, 0, 5.0), (1, 1, 5.0), (2, 0, 1.0), (2, 1, 1.0)]
        )
        assert not model.waits_are_block_structured(
            [(1, 0, 5.0), (1, 1, 0.0), (2, 0, 3.0), (2, 1, 3.1)]
        )


class TestAblations:
    def test_every_overallocation_run_commits(self):
        # The committed table prints only each run's time to release.
        outcomes = ablations.run_overallocation_ablation()
        committed = (RESULTS / "ablation_overallocation.txt").read_text()
        assert ablations.render_overallocation(outcomes) + "\n" == committed
        for outcome in outcomes.values():
            assert outcome.success
