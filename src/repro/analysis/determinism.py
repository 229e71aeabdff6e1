"""Determinism lints.

Simulated experiments must be bit-reproducible from the root seed:
every stochastic draw goes through a named
:class:`repro.simcore.rng.RngRegistry` substream and all time comes
from :attr:`Environment.now`.  Wall clocks, the process-global stdlib
and NumPy RNGs, entropy sources, and preemptive threading all break
that contract, so they are banned everywhere in the package except the
RNG module itself.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Checker, Finding, Module, Rule, Severity, dotted_name

#: Paths (posix suffixes) where stochastic primitives legitimately live.
EXEMPT_SUFFIXES = ("repro/simcore/rng.py",)


#: Two-segment dotted suffixes that read the wall clock or OS entropy.
WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.sleep",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: Names importable from ``time``/``datetime`` that carry the wall clock.
WALLCLOCK_IMPORTS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns", "sleep"},
    "os": {"urandom"},
    "uuid": {"uuid1", "uuid4"},
}

#: Modules whose import alone signals nondeterminism.
BANNED_MODULES = {
    "random": "det-stdlib-random",
    "secrets": "det-stdlib-random",
    "threading": "det-threads",
    "multiprocessing": "det-threads",
    "concurrent.futures": "det-threads",
}

#: Draw functions on the process-global ``numpy.random`` state.
NUMPY_GLOBAL_FNS = {
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "choice", "shuffle", "permutation", "normal", "uniform", "poisson",
    "exponential", "gamma", "binomial", "lognormal", "pareto", "weibull",
}


def import_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> the dotted path an import bound it to.

    ``import time as t`` maps ``t`` to ``time``, ``import numpy.random as
    npr`` and ``from numpy import random as npr`` map ``npr`` to
    ``numpy.random``; a plain ``import numpy`` binds its own name and
    needs no entry.  Relative imports name package-local modules and
    are left out.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


class DeterminismChecker(Checker):
    """Flag constructs that break seeded reproducibility."""

    name = "determinism"
    rules = (
        Rule("det-wallclock",
             "wall-clock or entropy read; use Environment.now / RngRegistry",
             Severity.ERROR),
        Rule("det-stdlib-random",
             "stdlib random/secrets import; use RngRegistry substreams",
             Severity.ERROR),
        Rule("det-global-numpy",
             "process-global or unseeded numpy RNG; use RngRegistry substreams",
             Severity.ERROR),
        Rule("det-threads",
             "threading/multiprocessing import; the simulator is single-threaded "
             "and preemption breaks event ordering",
             Severity.ERROR),
    )

    def check(self, module: Module) -> Iterator[Finding]:
        posix = module.path.replace("\\", "/")
        if any(posix.endswith(suffix) for suffix in EXEMPT_SUFFIXES):
            return
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                yield from self._check_import(module, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, aliases)

    # -- imports -----------------------------------------------------------

    def _check_import(self, module: Module, node: ast.Import) -> Iterator[Finding]:
        for alias in node.names:
            rule = BANNED_MODULES.get(alias.name)
            if rule is not None:
                yield self.finding(
                    module, node, rule, f"import of nondeterministic module "
                    f"{alias.name!r}"
                )

    def _check_import_from(
        self, module: Module, node: ast.ImportFrom
    ) -> Iterator[Finding]:
        source = node.module or ""
        rule = BANNED_MODULES.get(source)
        if rule is not None:
            yield self.finding(
                module, node, rule,
                f"import from nondeterministic module {source!r}",
            )
            return
        banned_names = WALLCLOCK_IMPORTS.get(source)
        if banned_names:
            for alias in node.names:
                if alias.name in banned_names:
                    yield self.finding(
                        module, node, "det-wallclock",
                        f"from {source} import {alias.name}: wall-clock/entropy "
                        f"leaks into simulated time",
                    )
        if source == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    yield self.finding(
                        module, node, "det-wallclock",
                        f"from datetime import {alias.name}: wall-clock dates "
                        f"have no meaning in simulated time",
                    )

    # -- calls -------------------------------------------------------------

    def _check_call(
        self, module: Module, node: ast.Call, aliases: dict[str, str]
    ) -> Iterator[Finding]:
        chain = dotted_name(node.func)
        if chain is None:
            return
        head, dot, rest = chain.partition(".")
        parts = (aliases.get(head, head) + dot + rest).split(".")
        tail2 = ".".join(parts[-2:])
        if tail2 in WALLCLOCK_CALLS:
            yield self.finding(
                module, node, "det-wallclock",
                f"call to {chain}(): wall-clock/entropy read inside "
                f"deterministic code",
            )
            return
        # numpy.random.* on the module-global state.
        if len(parts) >= 3 and parts[-2] == "random" and parts[-3] in ("np", "numpy"):
            fn = parts[-1]
            if fn == "default_rng" and not node.args and not node.keywords:
                yield self.finding(
                    module, node, "det-global-numpy",
                    "np.random.default_rng() without a seed draws OS entropy; "
                    "take a stream from the RngRegistry instead",
                )
            elif fn in NUMPY_GLOBAL_FNS:
                yield self.finding(
                    module, node, "det-global-numpy",
                    f"np.random.{fn}() uses the process-global RNG; "
                    f"take a stream from the RngRegistry instead",
                )
