"""Unbounded-state lints (``mem-*``) for long-lived services.

A simulation run ends; a service does not.  At the 10⁵–10⁶-event scale
the ROADMAP targets — and in the orchestrator-as-a-service future of
item 3 — any per-request structure that only ever grows is a leak:
dedup caches keyed by submission id, intern tables keyed by endpoint,
callback registries that are joined but never left, trace/context maps
keyed by trace id.  Each is invisible in a short test and fatal over
millions of requests.

This checker does class-level dataflow over the AST: for every class in
a long-lived locus it collects the *grow* sites of each container
attribute (``append``/``add``/``insert``/``setdefault``/``update`` and
subscript stores) and the *shrink* sites (``pop``/``popitem``/``clear``
/``remove``/``discard``, ``del``, wholesale reassignment), then flags
attributes grown in handlers with no reachable shrink.  Module- and
class-level caches, ``functools.cache`` memoization, unpaired
``on``/``register`` calls, ``defaultdict`` attributes, and
module-level instance registries get their own rules.

Like the ``perf-*`` family the rules are deliberately aggressive, so
they are *scoped*: they fire only inside the registered long-lived loci
(:data:`LONG_LIVED` — the kernel, the network, the GRAM gatekeeper/job
manager/client, the DUROC co-allocator and barrier, the callback
dispatcher, and the obs registries) or in defs/classes explicitly
opted in with a ``# repro: longlived`` marker comment.  Growth that is
bounded *by construction* — :class:`repro.core.bounded.BoundedDict`,
:class:`~repro.core.bounded.BoundedSet`, ``deque(maxlen=...)`` — is
exempt: those are the sanctioned remedy.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Dict, Iterator, List, Optional, Set

from repro.analysis.framework import (
    Checker,
    Finding,
    Module,
    Rule,
    Severity,
    dotted_name,
)
from repro.analysis.scopes import scoped_roots

#: Opt-in marker: a function or class whose ``def``/``class`` line (or
#: the line directly above it) carries this comment is long-lived.
_LONGLIVED_RE = re.compile(r"#\s*repro:\s*longlived\b", re.IGNORECASE)

#: The registered long-lived loci, keyed by posix path suffix.  ``None``
#: scopes the whole module; otherwise the value lists dotted qualname
#: prefixes (same semantics as the ``perf-*`` registry).
LONG_LIVED: dict[str, Optional[frozenset[str]]] = {
    # The kernel: one Environment per run, alive for every event, and
    # the run's metrics registry riding on it.
    "repro/simcore/environment.py": None,
    "repro/simcore/metrics.py": frozenset({"MetricsRegistry"}),
    # The network fabric and its address/intern tables.
    "repro/net/address.py": None,
    "repro/net/network.py": None,
    "repro/net/transport.py": None,
    # GRAM services: gatekeeper/job-manager processes run for the whole
    # simulated lifetime of their machine; the client owns callback and
    # reply-port state per request.
    "repro/gram/gatekeeper.py": None,
    "repro/gram/jobmanager.py": None,
    "repro/gram/client.py": None,
    # DUROC co-allocation: the co-allocator, its barrier tables, and
    # the callback dispatcher outlive every individual request.
    "repro/core/coallocator.py": None,
    "repro/core/barrier.py": None,
    "repro/core/callbacks.py": None,
    # Observability sinks: always on, they accumulate per-trace
    # state at event rate (the span records themselves are governed by
    # the SpanSink seam, documented in docs/OBSERVABILITY.md).
    "repro/obs/streaming.py": None,
    # The always-on black box: observes every event for the whole run,
    # so its rings and dump list must be provably bounded.
    "repro/obs/flightrec.py": frozenset({"FlightRing", "FlightRecorder"}),
}

#: Method names that add entries to a container.
GROW_METHODS = frozenset(
    {"append", "appendleft", "add", "insert", "setdefault", "update", "extend"}
)

#: Method names that remove entries (or all entries) from a container.
SHRINK_METHODS = frozenset(
    {"pop", "popitem", "popleft", "clear", "remove", "discard"}
)

#: Constructor name tails whose result is bounded by construction.
BOUNDED_CONSTRUCTORS = frozenset({"BoundedDict", "BoundedSet"})

#: Registration call names that must be paired with an unregistration.
REGISTER_METHODS = frozenset(
    {"on", "register", "subscribe", "add_listener", "add_callback"}
)

#: Call names accepted as the matching unregistration/release.
UNREGISTER_METHODS = frozenset(
    {"off", "unregister", "unsubscribe", "remove_listener",
     "remove_callback", "close", "dispose", "release"}
)

#: Setup methods whose grows are construction, not per-request growth.
_INIT_METHODS = frozenset({"__init__", "__post_init__"})

_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def long_lived_roots(module: Module) -> list[ast.AST]:
    """The AST subtrees of ``module`` subject to mem rules."""
    return scoped_roots(module, LONG_LIVED, _LONGLIVED_RE)


def _self_attr_root(node: ast.AST) -> Optional[str]:
    """The attribute name for a chain rooted at ``self.<attr>``.

    Subscripts are looked through, so ``self._paths[tid][sid]`` and
    ``self._handlers[event]`` both resolve to their base attribute —
    mutating a contained collection grows (or shrinks) the retained
    state the outer attribute owns.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _flatten_targets(targets: List[ast.expr]) -> List[ast.expr]:
    """Expand tuple/list unpacking targets into their elements."""
    out: List[ast.expr] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            out.extend(_flatten_targets(list(target.elts)))
        elif isinstance(target, ast.Starred):
            out.append(target.value)
        else:
            out.append(target)
    return out


def _name_root(node: ast.AST) -> Optional[ast.AST]:
    """The base Name/Attribute of a chain, looking through subscripts."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, (ast.Name, ast.Attribute)):
        return node
    return None


def _is_bounded_ctor(value: ast.AST) -> bool:
    """True for ``BoundedDict(...)``/``BoundedSet(...)``/``deque(maxlen=N)``."""
    if not isinstance(value, ast.Call):
        return False
    name = dotted_name(value.func)
    if name is None:
        return False
    tail = name.rsplit(".", 1)[-1]
    if tail in BOUNDED_CONSTRUCTORS:
        return True
    if tail == "deque":
        for kw in value.keywords:
            if kw.arg == "maxlen" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            ):
                return True
    return False


def _is_mutable_container(value: ast.AST) -> bool:
    """True for a literal/constructed dict, set, or list value."""
    if isinstance(value, (ast.Dict, ast.Set, ast.List, ast.DictComp,
                          ast.SetComp, ast.ListComp)):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name is None:
            return False
        tail = name.rsplit(".", 1)[-1]
        return tail in {"dict", "set", "list", "defaultdict", "OrderedDict",
                        "Counter", "deque"} and not _is_bounded_ctor(value)
    return False


def _is_defaultdict_ctor(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    name = dotted_name(value.func)
    return name is not None and name.rsplit(".", 1)[-1] == "defaultdict"


class _AttrUse:
    """Grow/shrink/bound evidence for one ``self.<attr>`` container."""

    __slots__ = ("grows", "shrinks", "bounded", "defaultdict_site")

    def __init__(self) -> None:
        #: grow sites outside __init__/__post_init__ (anchor nodes)
        self.grows: List[ast.AST] = []
        self.shrinks = 0
        self.bounded = False
        self.defaultdict_site: Optional[ast.AST] = None


class MemoryChecker(Checker):
    """Flag state that only ever grows inside the long-lived loci."""

    name = "mem"
    rules = (
        Rule("mem-grow-only-attr",
             "instance container grown in handlers with no reachable "
             "shrink site in its class; unbounded over a service "
             "lifetime — bound it (BoundedDict/BoundedSet/deque(maxlen)) "
             "or add an eviction path",
             Severity.ERROR),
        Rule("mem-module-cache",
             "module/class-level mutable cache grown without a shrink "
             "site or bound; shared caches outlive every request",
             Severity.ERROR),
        Rule("mem-unpaired-register",
             "callback registration with no paired unregistration on "
             "the same receiver anywhere in the class; each registration "
             "pins the handler (and its closure) for the receiver's "
             "lifetime",
             Severity.ERROR),
        Rule("mem-unbounded-memo",
             "functools.cache / lru_cache(maxsize=None) memoizes every "
             "distinct argument forever; give it a maxsize or use "
             "BoundedDict",
             Severity.ERROR),
        Rule("mem-defaultdict-attr",
             "defaultdict attribute with no shrink site: missed lookups "
             "*create* entries, so even read paths grow it",
             Severity.WARNING),
        Rule("mem-mutable-default",
             "mutable default argument mutated in the function body is "
             "shared across every call — per-call state accretes in the "
             "default object",
             Severity.WARNING),
        Rule("mem-instance-registry",
             "constructor registers self in a module-level container; "
             "every instance ever created stays reachable — use weak "
             "references or an explicit unregister path",
             Severity.ERROR),
    )

    def check(self, module: Module) -> Iterator[Finding]:
        roots = long_lived_roots(module)
        if not roots:
            return
        for root in roots:
            yield from self._check_classes(module, root)
            yield from self._check_caches(module, root)
            yield from self._check_memo(module, root)
            yield from self._check_mutable_defaults(module, root)

    # -- mem-grow-only-attr / mem-defaultdict-attr -------------------------

    def _check_classes(self, module: Module, root: ast.AST) -> Iterator[Finding]:
        classes = (
            [root] if isinstance(root, ast.ClassDef)
            else [n for n in ast.walk(root) if isinstance(n, ast.ClassDef)]
        )
        for cls in classes:
            yield from self._check_one_class(module, cls)

    def _check_one_class(self, module: Module, cls: ast.ClassDef) -> Iterator[Finding]:
        uses: Dict[str, _AttrUse] = {}

        def use(attr: str) -> _AttrUse:
            return uses.setdefault(attr, _AttrUse())

        for method in cls.body:
            if not isinstance(method, _FuncDef):
                continue
            in_init = method.name in _INIT_METHODS
            self._scan_method(method, in_init, use)

        for attr in sorted(uses):
            info = uses[attr]
            if info.bounded or not info.grows:
                continue
            if info.shrinks:
                continue
            if info.defaultdict_site is not None:
                continue  # reported below, under the defaultdict rule
            site = min(info.grows, key=lambda n: (n.lineno, n.col_offset))
            yield self.finding(
                module, site, "mem-grow-only-attr",
                f"'self.{attr}' is grown here but {cls.name} defines no "
                f"shrink site (pop/del/clear/discard/reassignment) for "
                f"it; it grows for the object's whole lifetime",
            )

        for attr in sorted(uses):
            info = uses[attr]
            if info.defaultdict_site is None or info.bounded:
                continue
            if info.shrinks:
                continue
            yield self.finding(
                module, info.defaultdict_site, "mem-defaultdict-attr",
                f"'self.{attr}' is a defaultdict with no shrink site in "
                f"{cls.name}: lookups of missing keys create entries, so "
                f"it grows even on read paths",
            )

        yield from self._check_registrations(module, cls)

    def _scan_method(
        self,
        method: ast.AST,
        in_init: bool,
        use: Callable[[str], _AttrUse],
    ) -> None:
        for node in ast.walk(method):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = _self_attr_root(node.func.value)
                if attr is None:
                    continue
                if node.func.attr in GROW_METHODS and not in_init:
                    use(attr).grows.append(node)
                elif node.func.attr in SHRINK_METHODS:
                    use(attr).shrinks += 1
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets: List[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = _flatten_targets(node.targets)
                else:
                    targets = [node.target]
                value = getattr(node, "value", None)
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        attr = _self_attr_root(target)
                        if attr is not None and not in_init:
                            use(attr).grows.append(node)
                    elif (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        info = use(target.attr)
                        if value is not None and _is_bounded_ctor(value):
                            info.bounded = True
                        elif value is not None and _is_defaultdict_ctor(value):
                            info.defaultdict_site = node
                        if not in_init and not isinstance(node, ast.AugAssign):
                            # Wholesale reassignment resets the container.
                            info.shrinks += 1
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = _self_attr_root(target)
                    if attr is not None:
                        use(attr).shrinks += 1

    # -- mem-unpaired-register ---------------------------------------------

    def _check_registrations(
        self, module: Module, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        registered: Dict[str, ast.Call] = {}
        released: Set[str] = set()
        defined = {m.name for m in cls.body if isinstance(m, _FuncDef)}
        for node in ast.walk(cls):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            receiver = dotted_name(node.func.value)
            if receiver is None:
                continue
            if node.func.attr in REGISTER_METHODS:
                registered.setdefault(receiver, node)
            elif node.func.attr in UNREGISTER_METHODS:
                released.add(receiver)
        for receiver in sorted(registered):
            if receiver in released:
                continue
            # A class that merely forwards its own on() is pairable by
            # its caller iff it also forwards an off(); require the pair
            # at this level instead of flagging the forwarder's caller.
            node = registered[receiver]
            attr = node.func.attr  # type: ignore[attr-defined]
            yield self.finding(
                module, node, "mem-unpaired-register",
                f"'{receiver}.{attr}(...)' has no matching "
                f"{'/'.join(sorted(UNREGISTER_METHODS))} call on "
                f"{receiver!r} anywhere in {cls.name}; the handler stays "
                f"registered for the receiver's lifetime",
            )
        # Forwarder check: a class defining on() without off() spreads
        # the leak to every caller.
        if ("on" in defined and "off" not in defined
                and "unregister" not in defined):
            for m in cls.body:
                if isinstance(m, _FuncDef) and m.name == "on":
                    yield self.finding(
                        module, m, "mem-unpaired-register",
                        f"{cls.name} defines on() but no off()/"
                        f"unregister(); callers can register handlers "
                        f"they can never remove",
                    )

    # -- mem-module-cache / mem-instance-registry --------------------------

    def _check_caches(self, module: Module, root: ast.AST) -> Iterator[Finding]:
        # Declared caches: (scope key, attr/name) -> declaration node.
        declared: Dict[str, ast.AST] = {}
        bounded: Set[str] = set()

        def declare(container: ast.AST, owner: Optional[str]) -> None:
            for stmt in ast.iter_child_nodes(container):
                targets: List[ast.expr] = []
                value: Optional[ast.AST] = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets, value = [stmt.target], stmt.value
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if value is not None and _is_bounded_ctor(value):
                        bounded.add(target.id)
                    elif value is not None and _is_mutable_container(value):
                        declared[target.id] = stmt

        top = root if isinstance(root, (ast.Module, ast.ClassDef)) else None
        if isinstance(root, ast.Module):
            declare(root, None)
            for node in ast.iter_child_nodes(root):
                if isinstance(node, ast.ClassDef):
                    declare(node, node.name)
        elif isinstance(root, ast.ClassDef):
            declare(root, root.name)
        if top is None or not declared:
            return

        grown: Dict[str, ast.AST] = {}
        shrunk: Set[str] = set()
        self_registered: Dict[str, ast.AST] = {}

        def cache_key(base: ast.AST) -> Optional[str]:
            """Map a chain base to a declared cache name, if any.

            Module-level caches are reached as bare names; class-level
            caches as ``cls.X`` / ``ClassName.X`` / ``self.X`` (reads
            through the instance hit the class attribute).
            """
            if isinstance(base, ast.Name):
                return base.id if base.id in declared or base.id in bounded else None
            if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                if base.value.id in {"cls", "self"} or base.value.id[:1].isupper():
                    name = base.attr
                    return name if name in declared or name in bounded else None
            return None

        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                base = _name_root(node.func.value)
                if base is None:
                    continue
                key = cache_key(base)
                if key is None:
                    continue
                if node.func.attr in GROW_METHODS:
                    grown.setdefault(key, node)
                    if any(isinstance(a, ast.Name) and a.id == "self"
                           for a in node.args):
                        self_registered.setdefault(key, node)
                elif node.func.attr in SHRINK_METHODS:
                    shrunk.add(key)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (_flatten_targets(node.targets)
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    base = _name_root(target)
                    if base is None:
                        continue
                    key = cache_key(base)
                    if key is None:
                        continue
                    grown.setdefault(key, node)
                    value = getattr(node, "value", None)
                    if isinstance(value, ast.Name) and value.id == "self":
                        self_registered.setdefault(key, node)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    base = _name_root(target)
                    if base is None:
                        continue
                    key = cache_key(base)
                    if key is not None:
                        shrunk.add(key)

        for key in sorted(grown):
            if key in shrunk or key in bounded:
                continue
            if key in self_registered:
                yield self.finding(
                    module, self_registered[key], "mem-instance-registry",
                    f"instances register themselves in {key!r} and are "
                    f"never removed; every instance ever constructed "
                    f"stays reachable through the module",
                )
            else:
                yield self.finding(
                    module, declared[key], "mem-module-cache",
                    f"cache {key!r} is grown "
                    f"(line {grown[key].lineno}) but never shrunk or "
                    f"bounded; it accumulates for the process lifetime",
                )

    # -- mem-unbounded-memo ------------------------------------------------

    def _check_memo(self, module: Module, root: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(root):
            if not isinstance(node, (*_FuncDef,)):
                continue
            for deco in node.decorator_list:
                call = deco.func if isinstance(deco, ast.Call) else deco
                name = dotted_name(call)
                if name is None:
                    continue
                tail = name.rsplit(".", 1)[-1]
                if tail == "cache":
                    yield self.finding(
                        module, deco, "mem-unbounded-memo",
                        f"@{name} on {node.name!r} memoizes every "
                        f"distinct call forever; use "
                        f"lru_cache(maxsize=N) or a BoundedDict",
                    )
                elif tail == "lru_cache" and isinstance(deco, ast.Call):
                    for kw in deco.keywords:
                        if (kw.arg == "maxsize"
                                and isinstance(kw.value, ast.Constant)
                                and kw.value.value is None):
                            yield self.finding(
                                module, deco, "mem-unbounded-memo",
                                f"@{name}(maxsize=None) on {node.name!r} "
                                # the message is not RSL:
                                # repro: noqa rsl-unknown-attribute
                                f"is an unbounded memo table; give it a "
                                f"finite maxsize",
                            )

    # -- mem-mutable-default -----------------------------------------------

    def _check_mutable_defaults(
        self, module: Module, root: ast.AST
    ) -> Iterator[Finding]:
        for node in ast.walk(root):
            if not isinstance(node, (*_FuncDef,)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = args.defaults
            pairs = list(zip(positional[len(positional) - len(defaults):],
                             defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            for arg, default in pairs:
                if not _is_mutable_container(default):
                    continue
                if self._param_mutated(node, arg.arg):
                    yield self.finding(
                        module, default, "mem-mutable-default",
                        f"default {ast.unparse(default)!r} of parameter "
                        f"{arg.arg!r} is one shared object; mutations in "
                        f"{node.name!r} accumulate across calls — default "
                        f"to None and allocate per call",
                    )

    @staticmethod
    def _param_mutated(func: ast.AST, param: str) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                base = _name_root(node.func.value)
                if (isinstance(base, ast.Name) and base.id == param
                        and node.func.attr in GROW_METHODS):
                    return True
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        base = _name_root(target)
                        if isinstance(base, ast.Name) and base.id == param:
                            return True
        return False
