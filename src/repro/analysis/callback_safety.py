"""Callback-safety lints.

DUROC monitoring callbacks (:mod:`repro.core.callbacks`) and GRAM
state callbacks (:class:`repro.gram.client.CallbackListener`) run
*synchronously inside the event that triggered them*.  A handler that
re-enters the event loop (``env.run``/``env.step``) or blocks on the
commit barrier deadlocks the two-phase-commit protocol: the event it
is waiting for can only be processed after the handler returns.
Handlers that are generator functions never execute at all — the
dispatcher calls them and discards the un-iterated generator.

The third rule is a resource-hygiene heuristic: a handler registered
under a per-job key (``listener.on(handle.job_id, ...)``) must have an
unregistration path in the same module, otherwise handlers accumulate
forever on long-running co-allocator services.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Union

from repro.analysis.framework import Checker, Finding, Module, Rule, Severity, dotted_name

#: Method names that (re-)enter the event loop or block on it.
BLOCKING_ATTRS = frozenset({"run", "run_until", "step", "wait_for_state"})

#: Receiver name fragments that mark an event-loop object.
ENV_NAMES = ("env", "environment", "loop", "sim")

#: Generator-protocol methods that block when yielded from; calling
#: them inside a synchronous handler is either a deadlock (if driven)
#: or dead code (if the returned generator is discarded).
GENERATOR_BLOCKERS = frozenset({"wait", "wait_done", "commit"})

#: Registration attributes: (attr, index of the handler argument).
REGISTRATION_ATTRS = {"on": 1, "set_interactive_handler": 0}

#: Attributes that count as an unregistration path.
UNREGISTER_ATTRS = frozenset({"off", "remove", "unregister"})

HandlerNode = Union[ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef]
_MAX_DEPTH = 5


class CallbackSafetyChecker(Checker):
    """Flag deadlock-prone or leaking callback registrations."""

    name = "callback-safety"
    rules = (
        Rule("cb-blocking",
             "callback body reaches a blocking event-loop operation",
             Severity.ERROR),
        Rule("cb-generator-handler",
             "generator function registered as a synchronous callback",
             Severity.ERROR),
        Rule("cb-no-unregister",
             "per-job callback registered with no unregistration path in "
             "this module",
             Severity.WARNING),
    )

    def check(self, module: Module) -> Iterator[Finding]:
        functions = _collect_functions(module.tree)
        has_unregister = _has_unregister(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            handler_index = REGISTRATION_ATTRS.get(func.attr)
            if handler_index is None or len(node.args) <= handler_index:
                continue
            handler_expr = node.args[handler_index]
            yield from self._check_handler(
                module, node, handler_expr, functions
            )
            if func.attr == "on" and not has_unregister:
                yield from self._check_unregister(module, node, func)

    # -- rule bodies ---------------------------------------------------------

    def _check_handler(
        self,
        module: Module,
        registration: ast.Call,
        handler_expr: ast.expr,
        functions: dict[str, HandlerNode],
    ) -> Iterator[Finding]:
        handler = _resolve_handler(handler_expr, functions)
        if handler is None:
            return
        if isinstance(handler, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_generator(handler):
                yield self.finding(
                    module, registration, "cb-generator-handler",
                    f"handler {handler.name!r} is a generator function; the "
                    f"dispatcher calls it synchronously and discards the "
                    f"generator, so its body never runs",
                )
                return
        blocker = _find_blocking(handler, functions, depth=0, seen=set())
        if blocker is not None:
            call, path = blocker
            via = f" (via {' -> '.join(path)})" if path else ""
            name = dotted_name(call.func) or "<call>"
            yield self.finding(
                module, registration, "cb-blocking",
                f"callback reaches blocking call {name}(){via}; handlers run "
                f"inside the event being processed and must not re-enter or "
                f"wait on the event loop",
            )

    def _check_unregister(
        self, module: Module, registration: ast.Call, func: ast.Attribute
    ) -> Iterator[Finding]:
        key = registration.args[0]
        if isinstance(key, ast.Constant) and key.value is None:
            return  # catch-all monitoring: lives as long as the listener
        receiver = dotted_name(func.value) or ""
        per_job_key = isinstance(key, ast.Attribute) and key.attr in (
            "job_id", "slot_id", "request_id",
        )
        listener_receiver = "listener" in receiver.lower()
        if not (per_job_key or (listener_receiver and not _is_enum_key(key))):
            return
        yield self.finding(
            module, registration, "cb-no-unregister",
            f"handler registered on {receiver or 'listener'} under a per-job "
            f"key but this module never unregisters handlers; terminal jobs "
            f"will leak their callbacks",
        )


def _is_enum_key(key: ast.expr) -> bool:
    """True for ``SomeEvent.MEMBER``-shaped keys (event registrations)."""
    return (
        isinstance(key, ast.Attribute)
        and isinstance(key.value, ast.Name)
        and key.value.id[:1].isupper()
    )


def _collect_functions(tree: ast.Module) -> dict[str, HandlerNode]:
    """name -> def node for every function/method in the module."""
    out: dict[str, HandlerNode] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.setdefault(node.name, node)
    return out


def _has_unregister(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in UNREGISTER_ATTRS
        ):
            return True
    return False


def _resolve_handler(
    expr: ast.expr, functions: dict[str, HandlerNode]
) -> Optional[HandlerNode]:
    if isinstance(expr, ast.Lambda):
        return expr
    if isinstance(expr, ast.Name):
        return functions.get(expr.id)
    if isinstance(expr, ast.Attribute):  # self._method / obj.method
        return functions.get(expr.attr)
    return None


def _own_nodes(fn: HandlerNode) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/lambdas."""
    stack: list[ast.AST] = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Lambda, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                continue
            stack.append(child)


def _is_generator(fn: HandlerNode) -> bool:
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in _own_nodes(fn)
    )


def _is_blocking_call(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    attr = func.attr
    receiver = (dotted_name(func.value) or "").lower()
    last = receiver.rsplit(".", 1)[-1]
    if attr in ("run", "run_until", "step"):
        return any(mark in last for mark in ENV_NAMES)
    if attr in BLOCKING_ATTRS:
        return True
    if attr in GENERATOR_BLOCKERS:
        # barrier.wait / job.commit / job.wait_done: blocking protocol ops.
        return True
    if receiver.endswith("time") and attr == "sleep":
        return True
    return False


def _find_blocking(
    fn: HandlerNode,
    functions: dict[str, HandlerNode],
    depth: int,
    seen: set[str],
) -> Optional[tuple[ast.Call, tuple[str, ...]]]:
    """First blocking call reachable from ``fn`` through same-module calls."""
    if depth > _MAX_DEPTH:
        return None
    for node in _own_nodes(fn):
        if not isinstance(node, ast.Call):
            continue
        if _is_blocking_call(node):
            return node, ()
        callee = _callee_name(node)
        if callee is None or callee in seen:
            continue
        target = functions.get(callee)
        if target is None or _is_generator(target):
            # Calling a generator function just builds the generator —
            # that is the sanctioned way to schedule deferred work.
            continue
        found = _find_blocking(target, functions, depth + 1, seen | {callee})
        if found is not None:
            call, path = found
            return call, (callee, *path)
    return None


def _callee_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in ("self", "cls"):
            return func.attr
    return None
