"""Shape tests for the forecast-staleness experiment (fast config)."""

import pytest

from repro.experiments import forecast
from repro.mds import Directory


class TestForecastExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        return forecast.run_forecast_experiment(
            refresh_intervals=(0.0, 600.0),
            n_jobs=8,
            seeds=(0, 1),
        )

    def test_all_jobs_complete(self, rows):
        assert all(r.completed == 16 for r in rows)

    def test_fresh_beats_stale(self, rows):
        by_policy = {r.policy: r.mean_wait for r in rows}
        assert by_policy["refresh=0s"] < by_policy["refresh=600s"]

    def test_fresh_beats_random(self, rows):
        by_policy = {r.policy: r.mean_wait for r in rows}
        assert by_policy["refresh=0s"] < by_policy["random"]

    def test_render(self, rows):
        text = forecast.render(rows)
        assert "staleness" in text
        assert "random" in text


class TestForecastCaching:
    def test_stale_forecast_served_from_cache(self):
        from repro.gridenv import GridBuilder
        from repro.schedulers import NodeRequest

        grid = (
            GridBuilder(seed=0)
            .add_machine("m", nodes=32, scheduler="fcfs")
            .build()
        )
        directory = Directory(grid.env, refresh_interval=100.0)
        directory.register(grid.site("m"))
        assert directory.predicted_wait("m", 32) == 0.0
        # Fill the machine; the cached forecast is still zero...
        grid.site("m").scheduler.submit(NodeRequest(count=32, max_time=50))
        assert directory.predicted_wait("m", 32) == 0.0
        # ...but the scheduler itself sees the queue.
        assert grid.site("m").scheduler.estimate_wait(32) > 0.0

    def test_cache_expires(self):
        from repro.gridenv import GridBuilder
        from repro.schedulers import NodeRequest

        grid = (
            GridBuilder(seed=0)
            .add_machine("m", nodes=32, scheduler="fcfs")
            .build()
        )
        directory = Directory(grid.env, refresh_interval=10.0)
        directory.register(grid.site("m"))
        assert directory.predicted_wait("m", 32) == 0.0
        grid.site("m").scheduler.submit(NodeRequest(count=32, max_time=50))
        grid.env.timeout(11.0)
        grid.run()
        assert directory.predicted_wait("m", 32) > 0.0

    def test_zero_refresh_is_always_fresh(self):
        from repro.gridenv import GridBuilder
        from repro.schedulers import NodeRequest

        grid = (
            GridBuilder(seed=0)
            .add_machine("m", nodes=32, scheduler="fcfs")
            .build()
        )
        directory = Directory(grid.env, refresh_interval=0.0)
        directory.register(grid.site("m"))
        assert directory.predicted_wait("m", 32) == 0.0
        grid.site("m").scheduler.submit(NodeRequest(count=32, max_time=50))
        assert directory.predicted_wait("m", 32) > 0.0
