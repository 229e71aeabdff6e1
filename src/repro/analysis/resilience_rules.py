"""Resilience-layer lints (``res-*``).

The retry layer brings two recurring hazards:

* a bare ``except:`` wrapped around an RPC call swallows the simulator's
  control-flow exceptions (``StopProcess``, ``Interrupt``) along with
  the fault it meant to tolerate, silently killing processes;
* a retry RNG seeded with a hard-coded literal
  (``np.random.default_rng(0)``, ``RngRegistry(0)``) detaches backoff
  jitter from the experiment's root seed, so "reproducible" sweeps stop
  being a function of ``seed`` alone.  Streams must come from the
  grid's :class:`~repro.simcore.rng.RngRegistry`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Checker, Finding, Module, Rule, Severity, dotted_name

#: Method names (last dotted segment) that perform simulated RPC.
RPC_METHODS = {"submit", "status", "cancel", "call", "request", "send", "recv"}

#: Constructors that must not be fed a hard-coded literal seed.
SEEDED_FACTORIES = {"default_rng", "RngRegistry"}

#: Paths (posix suffixes) where seeding primitives legitimately live.
EXEMPT_SUFFIXES = ("repro/simcore/rng.py",)


def _is_rpc_call(node: ast.Call) -> bool:
    chain = dotted_name(node.func)
    if chain is None:
        return False
    if "rpc" in chain.lower():
        return True
    return chain.split(".")[-1] in RPC_METHODS


class ResilienceChecker(Checker):
    """Flag fault-handling constructs that undermine the retry layer."""

    name = "resilience"
    rules = (
        Rule(
            "res-bare-except",
            "bare except around an RPC call swallows simulator control "
            "exceptions; catch the specific fault types",
            Severity.ERROR,
        ),
        Rule(
            "res-literal-seed",
            "RNG seeded with a literal detaches retry jitter from the "
            "root seed; use an RngRegistry stream",
            Severity.ERROR,
        ),
    )

    def check(self, module: Module) -> Iterator[Finding]:
        posix = module.path.replace("\\", "/")
        exempt_seed = any(posix.endswith(s) for s in EXEMPT_SUFFIXES)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Try):
                yield from self._check_try(module, node)
            elif isinstance(node, ast.Call) and not exempt_seed:
                yield from self._check_seed(module, node)

    # -- res-bare-except -----------------------------------------------------

    def _check_try(self, module: Module, node: ast.Try) -> Iterator[Finding]:
        bare = [h for h in node.handlers if h.type is None]
        if not bare:
            return
        rpc = next(
            (
                call
                for stmt in node.body
                for call in ast.walk(stmt)
                if isinstance(call, ast.Call) and _is_rpc_call(call)
            ),
            None,
        )
        if rpc is None:
            return
        chain = dotted_name(rpc.func)
        for handler in bare:
            yield self.finding(
                module, handler, "res-bare-except",
                f"bare except guards RPC call {chain}(); it also catches "
                "StopProcess/Interrupt and hides real faults from the "
                "retry layer",
            )

    # -- res-literal-seed -----------------------------------------------------

    def _check_seed(self, module: Module, node: ast.Call) -> Iterator[Finding]:
        chain = dotted_name(node.func)
        if chain is None or chain.split(".")[-1] not in SEEDED_FACTORIES:
            return
        seed = node.args[0] if node.args else None
        if seed is None:
            for keyword in node.keywords:
                if keyword.arg == "seed":
                    seed = keyword.value
        if isinstance(seed, ast.Constant) and isinstance(
            seed.value, (int, float)
        ) and not isinstance(seed.value, bool):
            name = chain.split(".")[-1]
            yield self.finding(
                module, node, "res-literal-seed",
                f"{name}({seed.value!r}) hard-codes a seed; derive streams "
                "from the grid's RngRegistry so runs stay a function of "
                "the root seed",
            )
