"""numpy is paid for on the first random draw, not on import.

A named stream builds its ``numpy.random.Generator`` on its first
attribute read, and no other module needs numpy at run time, so the
co-allocation stack, its command-line tools and a run that draws
nothing load no numpy.  The lazy stream must draw exactly what the
eager generator it stands for draws."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.simcore.rng import RngRegistry

SRC = Path(__file__).resolve().parents[1] / "src"

#: What the wall-clock workloads import for their ``setup_s``.
WORKLOAD_IMPORTS = (
    "repro.gridenv",
    "repro.core.request",
    "repro.obs.flightrec",
    "repro.verify.runner",
    "repro.prof.counters",
    "repro.experiments.apps",
    "repro.simcore.environment",
    "repro.net.network",
    "repro.net.rpc",
)

#: The command-line tools.
CLI_IMPORTS = (
    "repro.obs.cli",
    "repro.prof.cli",
    "repro.verify.cli",
    "repro.resilience.cli",
    "repro.analysis.cli",
    "repro.experiments.__main__",
)


def run_fresh(script):
    # A fresh interpreter: this process imported numpy long ago.
    return subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_stack_imports_and_runs_with_numpy_blocked():
    # ``sys.modules[name] = None`` makes every ``import numpy`` raise.
    script = "\n".join(
        [
            "import sys",
            "sys.modules['numpy'] = None",
            *(f"import {module}" for module in WORKLOAD_IMPORTS + CLI_IMPORTS),
            "from repro.workloads.scenarios import FIGURE1, run",
            "grid, (job, result) = run(FIGURE1, seed=42)",
            "print(job.state.name, result.sizes)",
        ]
    )
    result = run_fresh(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[0] == "DONE"


def loaded(modules):
    """The ``repro.*`` modules, and whether ``multiprocessing`` is among
    everything loaded, after importing ``modules`` in a fresh interpreter."""
    script = (
        "import sys\n"
        f"import {', '.join(modules)}\n"
        "print(sum(name.split('.')[0] == 'repro' for name in sys.modules))\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    result = run_fresh(script)
    assert result.returncode == 0, result.stderr
    count, forks = result.stdout.split()
    return int(count), forks == "True"


def test_the_app_sweeps_load_only_what_they_need():
    # apps' own imports need 67 modules; then the package, report, cells
    # and apps itself.  The package imports no experiment module.
    count, _ = loaded(["repro.experiments.apps"])
    assert count <= 71


def test_no_workload_import_loads_multiprocessing():
    # A sweep imports it on its first parallel call, never at import.
    _, forks = loaded(WORKLOAD_IMPORTS)
    assert not forks


def test_an_undrawn_stream_leaves_numpy_unimported():
    script = (
        "import sys\n"
        "from repro.resilience import RetryPolicy\n"
        "from repro.simcore.rng import RngRegistry\n"
        "rngs = RngRegistry(42)\n"
        "stream = rngs.stream('resilience.retry')\n"
        "assert rngs.stream('resilience.retry') is stream\n"
        "assert RetryPolicy(base_delay=2.0, jitter=0.0).delay(1, stream) == 2.0\n"
        "print('numpy' in sys.modules)\n"
    )
    result = run_fresh(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def eager(seed, name):
    return np.random.default_rng(np.random.SeedSequence([seed, *map(ord, name)]))


DRAWS = {
    "random": lambda g: g.random(5),
    "gamma": lambda g: g.gamma(2.0, 3.0, size=4),
    "integers": lambda g: g.integers(0, 1000, size=6),
    "permutation": lambda g: g.permutation(9),
    "choice": lambda g: g.choice(["a", "b", "c", "d"], size=5),
}


@pytest.mark.parametrize("name", ["net.latency", "bg.RM3"])
def test_a_stream_draws_what_the_eager_generator_draws(name):
    lazy, reference = RngRegistry(42).stream(name), eager(42, name)
    # Interleaved, so each draw also checks the state the last one left.
    for _ in range(2):
        for draw in DRAWS.values():
            np.testing.assert_array_equal(draw(lazy), draw(reference))
    assert lazy.bit_generator.state == reference.bit_generator.state
