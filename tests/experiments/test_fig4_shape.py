"""Figure 4's shape, checked on the committed tables.

``python -m repro.experiments fig4 --write results/`` regenerates
``results/fig4_*.txt`` and CI keeps them equal to git; this reads them
(no simulation) and asserts the paper's claims for Fig. 4: DUROC time
is linear in the subjob count, from about 2 s at one subjob to about
28 s at 25, pipelining beats zero concurrency, the average barrier
wait is about half the total, and the process count barely matters.
"""

import re
from pathlib import Path

import pytest

from repro.experiments.report import linear_fit

RESULTS = Path(__file__).resolve().parents[2] / "results"


@pytest.fixture(scope="module")
def scaling() -> dict[int, tuple[float, float, float, float]]:
    """subjobs -> (DUROC, zero-concurrency, synthetic, avg barrier wait)."""
    lines = (RESULTS / "fig4_duroc_scaling.txt").read_text().splitlines()
    # Title, header and rule come first; the pipelining note comes last.
    rows = [[float(cell) for cell in line.split("|")] for line in lines[3:-1]]
    return {int(cells[0]): tuple(cells[1:]) for cells in rows}


@pytest.fixture(scope="module")
def by_processes() -> dict[int, float]:
    """total process count -> DUROC time at 8 subjobs."""
    text = (RESULTS / "fig4_process_insensitivity.txt").read_text()
    return {
        int(count): float(seconds)
        for count, seconds in re.findall(r"(\d+) processes: ([\d.]+) s", text)
    }


def test_duroc_time_is_linear_in_subjobs(scaling):
    slope, _, r_squared = linear_fit(
        list(scaling), [row[0] for row in scaling.values()]
    )
    assert 1.15 <= slope <= 1.30
    assert r_squared > 0.999


def test_anchors_near_the_paper(scaling):
    # 1 subjob ≈ 2 s (paper: 2 s); 25 subjobs ≈ 28 s (paper).
    assert scaling[1][0] == pytest.approx(2.0, abs=0.3)
    assert scaling[25][0] == pytest.approx(28.0, rel=0.2)


def test_pipelining_saves_a_third_against_zero_concurrency(scaling):
    duroc, zero_concurrency, _, _ = scaling[25]
    assert 0.30 <= 1 - duroc / zero_concurrency <= 0.50


def test_average_barrier_wait_is_half_the_total(scaling):
    duroc, _, _, wait = scaling[25]
    assert wait == pytest.approx(duroc / 2, rel=0.10)


def test_process_count_barely_matters(by_processes):
    assert sorted(by_processes) == [16, 32, 64, 128]
    times = by_processes.values()
    assert (max(times) - min(times)) / min(times) <= 0.005
