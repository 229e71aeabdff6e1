"""The system under study never imports its tooling, and ``env`` is the
only instrumentation handle its components take.

Everything a bare ``import repro.gridenv`` reaches, in a fresh
interpreter, loads no ``repro.obs``, ``repro.prof``, ``repro.verify`` or
``repro.analysis`` module; nor does ``import repro.workloads.scenarios``,
where a run is declared: :func:`~repro.workloads.scenarios.run` loads
an observer only when it is asked for one."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.atomic import Grab
from repro.core.barrier import BarrierManager
from repro.core.coallocator import Duroc
from repro.gram.client import GramClient
from repro.gram.gatekeeper import Gatekeeper
from repro.gram.jobmanager import JobManager
from repro.gram.site import Site
from repro.machine.host import Machine
from repro.mpi.comm import MiniComm
from repro.net.network import Network
from repro.resilience import RetryEpisode, retrying

SRC = Path(__file__).resolve().parents[1] / "src"

#: What a bare ``import repro.gridenv`` must not load.
TOOLING = ("repro.obs", "repro.prof", "repro.verify", "repro.analysis")


def tooling_loaded_by(module):
    # A fresh interpreter: this process has long since imported it all.
    script = (
        f"import {module}, sys; "
        f"print(*sorted(m for m in sys.modules if m.startswith({TOOLING!r})))"
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.split()


def test_building_a_grid_imports_no_tooling():
    assert tooling_loaded_by("repro.gridenv") == []


def test_declaring_a_run_imports_no_tooling():
    assert tooling_loaded_by("repro.workloads.scenarios") == []


@pytest.mark.parametrize(
    "component, keyword",
    [
        (Network, "metrics"),
        (Site, "tracer"),
        (Machine, "tracer"),
        (Gatekeeper, "tracer"),
        (JobManager, "tracer"),
        (GramClient, "tracer"),
        (Duroc, "tracer"),
        (Grab, "tracer"),
        (BarrierManager, "metrics"),
        (MiniComm, "metrics"),
        (RetryEpisode, "metrics"),
        (retrying, "metrics"),
    ],
)
def test_components_take_no_tracer_or_metrics(component, keyword):
    # Python binds arguments before it runs any code, so the unexpected
    # keyword is reported whatever else is missing.
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        component(**{keyword: None})
