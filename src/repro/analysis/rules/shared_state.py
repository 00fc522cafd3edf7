"""shared-state-race: no module-global writes in fork-worker code.

The experiment pool (``experiments/parallel.py``) forks workers and
promises byte-identical results to a serial run.  That promise holds
because every shared decision is made in the parent; a worker that
writes module-level state is mutating a *copy* the parent never sees —
the canonical silent-divergence bug (results differ by worker layout,
caches go stale per-process, counters under-count).

The rule finds fork-worker entry points structurally
(:meth:`~repro.analysis.callgraph.Project.worker_roots`), walks the
call graph closure, and flags, inside any reachable function:

* rebinding a module-level name (``global X`` + assignment),
* mutating a module-level object in place (subscript/attribute
  assignment, augmented assignment, or a known mutator method call on
  a module-level binding),
* writes to ``os.environ`` (process state that dies with the worker).

**Soundness limits**: reachability over-approximates through
unknown-receiver method calls, and supervisor-owned *objects* passed
into workers are not tracked (escape analysis is out of scope) — the
module-global criterion is the precise, enforceable core of the
contract.  Read-only access to module globals is always fine.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator

from repro.analysis.callgraph import FunctionInfo, ModuleInfo, Project
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectRule, dotted_name

#: in-place mutator methods on the builtin containers.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "sort", "reverse",
})


class SharedStateRaceRule(ProjectRule):
    name = "shared-state-race"
    contract = (
        "Fork workers never write shared state: code reachable from a "
        "fork-worker entry point (a Process target or a pool-dispatched "
        "callable) must not rebind or mutate module-level bindings or "
        "os.environ — worker-side writes land in a forked copy the "
        "parent never observes, so serial and parallel runs silently "
        "diverge.  All cross-worker state flows through the parent."
    )
    design_ref = "DESIGN.md §15.2"
    hint = (
        "return results to the parent over the worker's pipe/pool "
        "protocol instead of writing shared state; per-process caches "
        "need a disable comment explaining why divergence is impossible"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        roots = project.worker_roots()
        if not roots:
            return
        chains = project.reachable_from(roots)
        for qualname in sorted(chains):
            func = project.functions.get(qualname)
            if func is None:
                continue
            mod = project.modules[func.module]
            origin = self._origin(chains[qualname], project)
            yield from self._check_function(func, mod, origin)

    @staticmethod
    def _origin(chain: tuple[str, ...], project: Project) -> str:
        root = project.functions[chain[0]]
        where = f"{root.name}() in {root.module}"
        if len(chain) <= 1:
            return f"fork-worker entry {where}"
        hops = " -> ".join(q.rsplit(".", 1)[-1] for q in chain)
        return f"fork worker {where} via {hops}"

    def _check_function(
        self, func: FunctionInfo, mod: ModuleInfo, origin: str
    ) -> Iterator[Finding]:
        local = _local_names(func.node)
        declared_global = _global_decls(func.node)

        def is_module_binding(name: str) -> bool:
            if name in declared_global:
                # global X + write rebinds (or creates) the module name
                return True
            return name not in local and name in mod.global_names

        for node in ast.walk(func.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    yield from self._check_target(
                        func, target, is_module_binding, origin,
                        augmented=isinstance(node, ast.AugAssign),
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_mutator_call(
                    func, node, is_module_binding, origin
                )

    def _check_target(
        self,
        func: FunctionInfo,
        target: ast.expr,
        is_module_binding: Callable[[str], bool],
        origin: str,
        *,
        augmented: bool,
    ) -> Iterator[Finding]:
        if isinstance(target, ast.Name):
            if is_module_binding(target.id):
                verb = "augments" if augmented else "rebinds"
                yield self.finding(
                    func.src, target,
                    f"{verb} module-level {target.id!r} in code "
                    f"reachable from {origin} — the write lands in the "
                    "forked copy and never reaches the parent",
                )
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            base: ast.expr = target.value
            while isinstance(base, ast.Subscript):
                base = base.value
            root = dotted_name(base)
            if root == "os.environ" or (
                root and "." not in root and is_module_binding(root)
            ):
                label = root if root == "os.environ" else f"{root!r}"
                yield self.finding(
                    func.src, target,
                    f"mutates module-level {label} in code reachable "
                    f"from {origin} — the write lands in the forked "
                    "copy and never reaches the parent",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._check_target(
                    func, element, is_module_binding, origin,
                    augmented=augmented,
                )

    def _check_mutator_call(
        self,
        func: FunctionInfo,
        call: ast.Call,
        is_module_binding: Callable[[str], bool],
        origin: str,
    ) -> Iterator[Finding]:
        dotted = dotted_name(call.func)
        if not dotted or "." not in dotted:
            return
        receiver, method = dotted.rsplit(".", 1)
        if method not in MUTATOR_METHODS and receiver != "os.environ":
            return
        if receiver == "os.environ" and method in (
            "update", "pop", "setdefault", "clear", "popitem",
        ):
            yield self.finding(
                func.src, call,
                f"mutates os.environ via .{method}() in code reachable "
                f"from {origin} — environment writes die with the worker",
            )
            return
        if "." in receiver:
            return  # attribute chains: object state, not a module global
        if method in MUTATOR_METHODS and is_module_binding(receiver):
            yield self.finding(
                func.src, call,
                f"mutates module-level {receiver!r} via .{method}() in "
                f"code reachable from {origin} — the write lands in the "
                "forked copy and never reaches the parent",
            )


def _local_names(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Names bound locally in the function (shadowing module globals)."""
    args = node.args
    local: set[str] = {
        a.arg for a in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
        )
    }
    if args.vararg is not None:
        local.add(args.vararg.arg)
    if args.kwarg is not None:
        local.add(args.kwarg.arg)
    declared_global = _global_decls(node)
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign)
                else [sub.target]
            )
            for target in targets:
                local.update(_flat_names(target))
        elif isinstance(sub, ast.NamedExpr):
            local.update(_flat_names(sub.target))
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            local.update(_flat_names(sub.target))
        elif isinstance(sub, ast.comprehension):
            local.update(_flat_names(sub.target))
        elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
            local.update(_flat_names(sub.optional_vars))
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            local.add(sub.name)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                local.add((alias.asname or alias.name).split(".")[0])
    return local - declared_global


def _global_decls(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Global, ast.Nonlocal)):
            names.update(sub.names)
    return names


def _flat_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for element in target.elts:
            out.extend(_flat_names(element))
        return out
    return []


