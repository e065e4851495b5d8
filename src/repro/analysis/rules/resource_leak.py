"""R7 ``resource-leak``: every acquire must reach its release.

The service layer is a chain of counted resources — admission slots,
snapshot generation pins, session checkouts, query-registry records,
raw file handles — and each one leaks the same way: an early ``return``
or an escaping exception between the acquire and the release.  A leaked
admission slot is permanent denial of service (the daemon's concurrency
shrinks by one forever); a leaked pin keeps a whole superseded snapshot
generation alive.

This rule runs the generic acquire/release dataflow
(:mod:`repro.analysis.dataflow`) over the function CFG for:

* every configured method pair (``acquire``/``release``,
  ``pin``/``unpin``, ``checkout``/``checkin``,
  ``__enter__``/``__exit__``) where one function calls **both** on the
  same receiver expression — cross-function protocols (the
  ``AdmissionController.acquire`` method itself) are out of
  intraprocedural scope and stay the province of the runtime tests;
* every ``handle = open(...)`` whose handle is a plain local that does
  not escape (returned, yielded, aliased, stored on ``self``, passed to
  a call) and that the function does ``.close()`` somewhere.

``with``-managed acquisition never flags (there is no acquire statement
to leak), and ``acquire()`` directly followed by ``try/finally:
release()`` comes out clean by CFG construction.  The finding message
distinguishes the exception-escape window from the early-return leak
and names the escaping statement.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

from ..astutil import dotted_name
from ..cfg import CFG, Node
from ..dataflow import Leak, find_leaks
from ..findings import Finding
from ..registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import AnalysisContext, ModuleInfo

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _receiver_text(call: ast.Call) -> Optional[str]:
    """The unparsed receiver of ``<recv>.method(...)``, else None."""
    if isinstance(call.func, ast.Attribute):
        try:
            return ast.unparse(call.func.value)
        except Exception:  # pragma: no cover - unparse failure
            return None
    return None


def _simple_nodes(cfg: CFG) -> List[Node]:
    """The simple-statement nodes (the only place an acquire/release
    call can appear as an executable statement)."""
    return [n for n in cfg.nodes if n.kind == "stmt" and n.stmt is not None]


def _calls_in(stmt: ast.AST) -> Iterator[ast.Call]:
    for child in ast.walk(stmt):
        if isinstance(child, ast.Call):
            yield child


@register
class ResourceLeakRule(Rule):
    id = "resource-leak"
    code = "R7"
    doc = (
        "acquired resource (slot/pin/checkout/handle) can escape its "
        "function without release on some path"
    )

    def check_module(
        self, module: "ModuleInfo", ctx: "AnalysisContext"
    ) -> Iterator[Finding]:
        from ..astutil import walk_functions

        pairs = ctx.config.resource_pairs
        for _class_name, func in walk_functions(module.tree):
            cfg = ctx.cfg(module, func)
            if cfg is None:
                continue
            nodes = _simple_nodes(cfg)
            yield from self._check_pairs(module, cfg, nodes, pairs)
            yield from self._check_open_handles(module, func, cfg, nodes)

    # -- method-pair protocols ---------------------------------------------

    def _check_pairs(
        self,
        module: "ModuleInfo",
        cfg: CFG,
        nodes: List[Node],
        pairs: Tuple[Tuple[str, str], ...],
    ) -> Iterator[Finding]:
        for acq_name, rel_name in pairs:
            acquires: Dict[str, List[Node]] = {}
            releases: Dict[str, List[Node]] = {}
            for node in nodes:
                assert node.stmt is not None
                for call in _calls_in(node.stmt):
                    if not isinstance(call.func, ast.Attribute):
                        continue
                    receiver = _receiver_text(call)
                    if receiver is None:
                        continue
                    if call.func.attr == acq_name:
                        acquires.setdefault(receiver, []).append(node)
                    elif call.func.attr == rel_name:
                        releases.setdefault(receiver, []).append(node)
            for receiver, acq_nodes in sorted(acquires.items()):
                rel_nodes = releases.get(receiver)
                if not rel_nodes:
                    # No same-function release: a cross-function
                    # protocol, not an intraprocedural leak.
                    continue
                for leak in find_leaks(cfg, acq_nodes, rel_nodes):
                    yield self._leak_finding(
                        module,
                        leak,
                        what=f"{receiver}.{acq_name}()",
                        release=f"{receiver}.{rel_name}()",
                    )

    # -- raw file handles --------------------------------------------------

    def _check_open_handles(
        self,
        module: "ModuleInfo",
        func: _FuncDef,
        cfg: CFG,
        nodes: List[Node],
    ) -> Iterator[Finding]:
        opens: Dict[str, List[Node]] = {}
        for node in nodes:
            stmt = node.stmt
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and dotted_name(stmt.value.func) in ("open", "io.open")
            ):
                opens.setdefault(stmt.targets[0].id, []).append(node)
        if not opens:
            return
        for name, acq_nodes in sorted(opens.items()):
            if self._handle_escapes(func, name):
                continue
            closes = [
                node
                for node in nodes
                if any(
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "close"
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == name
                    for call in _calls_in(node.stmt)  # type: ignore[arg-type]
                )
            ]
            if not closes:
                # Never closed at all: the handle's lifetime is someone
                # else's problem only if it escaped, which it did not —
                # but a function that never closes is usually relying on
                # GC; R7 stays scoped to broken close discipline.
                continue
            for leak in find_leaks(cfg, acq_nodes, closes):
                yield self._leak_finding(
                    module,
                    leak,
                    what=f"file handle {name!r}",
                    release=f"{name}.close()",
                )

    @staticmethod
    def _handle_escapes(func: _FuncDef, name: str) -> bool:
        """True when the handle outlives the function on some path:
        returned, yielded, aliased, stored on an attribute/subscript, or
        passed to a call."""
        for node in ast.walk(func):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                if value is not None and any(
                    isinstance(n, ast.Name) and n.id == name
                    for n in ast.walk(value)
                ):
                    return True
            elif isinstance(node, ast.Call):
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if any(
                        isinstance(n, ast.Name) and n.id == name
                        for n in ast.walk(arg)
                    ):
                        return True
            elif isinstance(node, ast.Assign):
                # Aliasing or storing anywhere but the defining Name.
                if isinstance(node.value, ast.Name) and node.value.id == name:
                    return True
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        if any(
                            isinstance(n, ast.Name) and n.id == name
                            for n in ast.walk(node.value)
                        ):
                            return True
        return False

    # -- shared message ----------------------------------------------------

    def _leak_finding(
        self, module: "ModuleInfo", leak: Leak, what: str, release: str
    ) -> Finding:
        escape = leak.escape_node()
        where = (
            f" (escapes via line {escape.line}: {escape.label})"
            if escape is not None
            else ""
        )
        if leak.exceptional:
            message = (
                f"an exception between {what} and {release} escapes "
                f"without releasing{where}; move the release into a "
                "try/finally or use a with block"
            )
        else:
            message = (
                f"a path from {what} reaches the function exit without "
                f"calling {release}{where}; release on every exit path"
            )
        return self.finding(
            module, leak.acquire.line, 0, message
        )
