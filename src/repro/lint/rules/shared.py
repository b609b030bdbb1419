"""R010 — shared-state mutations in thread workers need the lockset.

Code that hands worker callables to a ``concurrent.futures`` executor
or ``Thread(target=)`` must keep the discipline that workers touch only
their private state and the parent performs all shared write-back
after ``join``.  No module under ``src/`` runs worker threads today;
the rule keeps any that arrive honest.  A worker that mutates state it
did not create — an attribute reached through a parameter or
``self``, a captured container — is a data race unless the mutation
happens while a lock is definitely held.

Mechanics: :class:`~repro.lint.callgraph.ModuleGraph` finds the worker
callables (functions handed to ``submit``/``map``/``Thread(target=)``
plus their local transitive callees); inside each, a *must*-lockset
over the CFG decides whether each mutation site is protected.
Mutations of objects the worker itself constructs (fresh containers,
local dataclass instances) are private by definition and exempt.
Intentional parent-only write-back phases document themselves with a
``# reprolint: disable=R010`` pragma.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import ModuleGraph
from repro.lint.cfg import Payload, WithEnter, WithExit, build_cfg
from repro.lint.dataflow import LocksetAnalysis
from repro.lint.engine import (
    Finding,
    LintContext,
    Rule,
    dotted,
    terminal_name,
)

#: Method names that mutate their receiver in-place.
_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "add", "update", "remove", "discard", "pop",
        "popitem", "clear", "insert", "setdefault", "sort", "reverse",
        # domain mutators: trace/stat sinks and the buffer/disk layer
        "emit", "incr", "incr_labeled", "observe", "bump",
        "write_page", "write", "put", "force", "fix", "unfix", "register",
    }
)

#: Constructor-ish callables whose result is private to the caller.
_FRESH_BUILTINS = frozenset(
    {"list", "dict", "set", "tuple", "frozenset", "sorted", "bytearray",
     "defaultdict", "Counter", "deque", "OrderedDict"}
)


def _lockish(name: Optional[str]) -> bool:
    if name is None:
        return False
    lowered = name.lower()
    return "lock" in lowered or lowered in ("glm", "lm", "llm")


def _is_fresh_value(value: ast.AST) -> bool:
    """Does this RHS build a brand-new object the function owns?"""
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.Tuple,
                          ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = terminal_name(value.func)
        if name is None:
            return False
        return (
            name in _FRESH_BUILTINS
            or name.lstrip("_")[:1].isupper()  # incl. private _Outcome
        )
    return False


def _locally_created(func: ast.AST) -> Set[str]:
    """Names the function binds to freshly-constructed objects."""
    fresh: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and _is_fresh_value(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    fresh.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if (
                node.value is not None
                and _is_fresh_value(node.value)
                and isinstance(node.target, ast.Name)
            ):
                fresh.add(node.target.id)
    return fresh


def _root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _payload_roots(payload: Payload) -> List[ast.AST]:
    """The expressions a CFG payload evaluates *itself* — compound
    statements contribute only their header (their bodies live in
    their own blocks, with their own lockset)."""
    if isinstance(payload, (WithEnter, WithExit)):
        return []
    stmt = payload
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    return [stmt]


def _payload_mutations(
    payload: Payload, fresh: Set[str]
) -> Iterator[Tuple[ast.AST, str]]:
    """(node, description) for each shared-state mutation in a payload."""
    if isinstance(payload, ast.Assign):
        targets: List[ast.AST] = list(payload.targets)
    elif isinstance(payload, (ast.AugAssign, ast.AnnAssign)):
        targets = [payload.target]
    else:
        targets = []
    for target in targets:
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root = _root_name(target)
            if root is not None and root not in fresh:
                yield target, f"write to '{dotted(target)}'"
    for root_expr in _payload_roots(payload):
        stack: List[ast.AST] = [root_expr]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in _MUTATING_METHODS:
                continue
            root = _root_name(node.func.value)
            if root is None or root in fresh:
                continue
            if _lockish(terminal_name(node.func.value)):
                continue  # the lock protocol itself is not shared data
            receiver = dotted(node.func.value)
            yield node, f"'{receiver}.{node.func.attr}(...)'"


class SharedStateUnderLockRule(Rule):
    id = "R010"
    name = "shared-state-under-lock"
    description = (
        "thread-worker callables must mutate shared (non-locally-"
        "created) state only while a lock is definitely held; "
        "parent-only write-back phases carry an explicit pragma"
    )
    applies_to_tests = False  # test workers hammer shared state on purpose

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        graph = ModuleGraph(ctx.tree)
        workers = graph.worker_functions()
        if not workers:
            return
        for name in sorted(workers):
            func = graph.functions[name]
            yield from self._check_worker(ctx, name, func)

    def _check_worker(
        self, ctx: LintContext, name: str, func: ast.AST
    ) -> Iterator[Finding]:
        fresh = _locally_created(func)
        cfg = build_cfg(func)
        lockset = LocksetAnalysis(cfg, _lockish, must=True)
        reported: Dict[Tuple[int, int], bool] = {}
        for block in cfg.blocks:
            protected = bool(lockset.held_before(block.id))
            for payload in block.stmts:
                for node, what in _payload_mutations(payload, fresh):
                    site = (
                        getattr(node, "lineno", 0),
                        getattr(node, "col_offset", 0),
                    )
                    if protected or reported.get(site):
                        reported[site] = True
                        continue
                    if site in reported:
                        continue
                    reported[site] = False
                    yield ctx.finding(
                        self.id,
                        node,
                        f"{what} in thread-worker '{name}' with an empty "
                        "lockset — shared state mutated off the parent "
                        "thread is a data race; hold a lock or keep the "
                        "write-back in the parent (pragma if intentional)",
                    )
