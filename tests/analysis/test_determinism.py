"""Determinism rules: wall clocks, global RNGs, threads."""

from __future__ import annotations

import pytest

from repro.analysis.determinism import DeterminismChecker

from tests.analysis.conftest import rules_of


def test_wallclock_calls_flagged(run_checker):
    findings = run_checker(
        DeterminismChecker(),
        """
        import time, os

        def stamp():
            return time.time(), os.urandom(8)
        """,
    )
    assert rules_of(findings) == {"det-wallclock"}
    assert len(findings) == 2


def test_wallclock_from_imports_flagged(run_checker):
    findings = run_checker(
        DeterminismChecker(),
        """
        from time import perf_counter
        from datetime import datetime
        """,
    )
    assert rules_of(findings) == {"det-wallclock"}
    assert len(findings) == 2


def test_stdlib_random_import_flagged(run_checker):
    findings = run_checker(DeterminismChecker(), "import random\n")
    assert rules_of(findings) == {"det-stdlib-random"}
    findings = run_checker(DeterminismChecker(), "from random import choice\n")
    assert rules_of(findings) == {"det-stdlib-random"}


def test_threading_imports_flagged(run_checker):
    findings = run_checker(
        DeterminismChecker(),
        """
        import threading
        from multiprocessing import Pool
        """,
    )
    assert rules_of(findings) == {"det-threads"}
    assert len(findings) == 2


def test_unseeded_default_rng_flagged(run_checker):
    findings = run_checker(
        DeterminismChecker(),
        """
        import numpy as np

        gen = np.random.default_rng()
        draw = np.random.normal(0.0, 1.0)
        np.random.seed(7)
        """,
    )
    assert rules_of(findings) == {"det-global-numpy"}
    assert len(findings) == 3


def test_wallclock_through_module_alias_flagged(run_checker):
    findings = run_checker(
        DeterminismChecker(),
        """
        import time as t
        import datetime as dt

        stamp = t.time()
        start = t.perf_counter()
        today = dt.datetime.now()
        """,
    )
    assert [(f.line, f.rule) for f in findings] == [
        (5, "det-wallclock"), (6, "det-wallclock"), (7, "det-wallclock"),
    ]


@pytest.mark.parametrize("prefix, imports", [
    ("np.random.", "import numpy as np"),
    ("numpy.random.", "import numpy"),
    ("npr.", "import numpy.random as npr"),
    ("npr.", "from numpy import random as npr"),
], ids=["np", "numpy", "import-as-npr", "from-import-as-npr"])
def test_numpy_random_through_import_alias_flagged(run_checker, prefix, imports):
    findings = run_checker(
        DeterminismChecker(),
        f"{imports}\n"
        f"draw = {prefix}normal(0, 1)\n"
        f"gen = {prefix}default_rng()\n"
        f"seeded = {prefix}default_rng(7)\n",
    )
    assert [(f.line, f.rule) for f in findings] == [
        (2, "det-global-numpy"), (3, "det-global-numpy"),
    ]


def test_seeded_rng_and_injected_streams_clean(run_checker):
    findings = run_checker(
        DeterminismChecker(),
        """
        import numpy as np

        def jitter(rng: np.random.Generator, mean: float) -> float:
            return float(rng.gamma(2.0, mean / 2.0))

        gen = np.random.default_rng(np.random.SeedSequence([1, 2]))
        now = env.now
        """,
    )
    assert findings == []


def test_rng_module_is_exempt(run_checker):
    findings = run_checker(
        DeterminismChecker(),
        "import numpy as np\ngen = np.random.default_rng()\n",
        filename="repro/simcore/rng.py",
    )
    assert findings == []


def test_suppression_comment(run_checker):
    findings = run_checker(
        DeterminismChecker(),
        "import time\nwall = time.time()  # repro: noqa det-wallclock\n",
    )
    assert findings == []


def test_deprecated_docstring_without_warning_still_checked(run_checker):
    """A module that calls itself deprecated is checked like any other."""
    findings = run_checker(
        DeterminismChecker(),
        '''
        """Deprecated, allegedly."""

        import random
        ''',
    )
    assert rules_of(findings) == {"det-stdlib-random"}
