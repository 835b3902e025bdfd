"""MUT001 -- cached model/inference arrays are read-only.

The probe-scoring engine's speed comes from aliasing: ``evolution()``,
``prefix_distribution()``, ``coverage_vector()``, ``probe_matrix()``,
the model's memoised transition-entry accessors (``_ensure_entries()``
/ ``_sorted_entries()``) and its memoised arrival events
(``_arrival_events()``, which the fast screen's operator builder reads
directly) return the cached object itself, and ``dist_full`` /
``dist_absent`` *are* cache entries.  Writing through any of those
references corrupts every later score drawn from the same cache --
silently, because the numbers stay plausible.  (The runtime complement: the caches return
arrays with ``writeable=False``, so an uncaught mutation raises.)

The rule runs a per-function taint pass: names bound to an accessor's
result (or to ``.dist_full`` / ``.dist_absent``) are tainted until
rebound; ``.copy()`` launders the taint.  Flagged operations on a
tainted value or directly on an accessor call:

* subscript assignment or augmented assignment (``w[0] = x``, ``w *= 2``);
* in-place ndarray methods (``sort``, ``fill``, ``put``, ...);
* re-enabling writes via ``setflags(write=True)``.

Mutating a fresh copy is always fine: ``w = acc().copy(); w[0] = 1``.
"""

from __future__ import annotations

import ast
from typing import ClassVar, FrozenSet, Iterator, List, Optional, Set

from repro.lint.base import (
    AnyFunctionDef,
    LintRule,
    ModuleSource,
    iter_function_defs,
)
from repro.lint.findings import Finding

#: Methods returning cached (aliased) arrays/matrices.
CACHE_ACCESSOR_METHODS: FrozenSet[str] = frozenset(
    {
        "_arrival_events",
        "_ensure_entries",
        "_sorted_entries",
        "coverage_vector",
        "evolution",
        "prefix_distribution",
        "probe_matrix",
    }
)

#: Attributes that alias cache entries on ``ReconInference``.
CACHE_ATTRIBUTES: FrozenSet[str] = frozenset({"dist_absent", "dist_full"})

#: ndarray methods that mutate in place.
INPLACE_METHODS: FrozenSet[str] = frozenset(
    {
        "byteswap",
        "fill",
        "itemset",
        "partition",
        "put",
        "resize",
        "sort",
    }
)


def _is_accessor_expr(node: ast.expr) -> bool:
    """Whether an expression reads straight from a cache accessor."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in CACHE_ACCESSOR_METHODS
    if isinstance(node, ast.Attribute):
        return node.attr in CACHE_ATTRIBUTES
    return False


class _FunctionTaint(ast.NodeVisitor):
    """Linear taint pass over one function body."""

    def __init__(self, rule: "CachedArrayMutationRule", module: ModuleSource) -> None:
        self.rule = rule
        self.module = module
        self.tainted: Set[str] = set()
        self.findings: List[Finding] = []

    # -- taint bookkeeping ---------------------------------------------
    def _expr_taints(self, value: ast.expr) -> bool:
        """Whether binding a name to ``value`` taints it."""
        if _is_accessor_expr(value):
            return True
        if isinstance(value, ast.Name) and value.id in self.tainted:
            return True
        return False

    def _is_tainted_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        return _is_accessor_expr(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._flag_mutating_targets(node.targets)
        taints = self._expr_taints(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if taints:
                    self.tainted.add(target.id)
                else:
                    self.tainted.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            if self._expr_taints(node.value):
                self.tainted.add(node.target.id)
            else:
                self.tainted.discard(node.target.id)
        self.generic_visit(node)

    # -- mutation sites ------------------------------------------------
    def _flag_mutating_targets(self, targets: List[ast.expr]) -> None:
        for target in targets:
            if isinstance(target, ast.Subscript) and self._is_tainted_expr(
                target.value
            ):
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        target,
                        "subscript write into a cached array; take "
                        "a .copy() before mutating",
                    )
                )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        base = target.value if isinstance(target, ast.Subscript) else target
        if self._is_tainted_expr(base):
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    "augmented assignment mutates a cached array in "
                    "place; take a .copy() first",
                )
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and self._is_tainted_expr(
            func.value
        ):
            if func.attr in INPLACE_METHODS:
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        node,
                        f".{func.attr}() mutates a cached array in "
                        "place; take a .copy() first",
                    )
                )
            elif func.attr == "setflags" and self._enables_write(node):
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        node,
                        "setflags(write=True) re-enables writes on a "
                        "cached array",
                    )
                )
        self.generic_visit(node)

    @staticmethod
    def _enables_write(node: ast.Call) -> bool:
        for keyword in node.keywords:
            if keyword.arg == "write":
                value = keyword.value
                return not (
                    isinstance(value, ast.Constant) and value.value is False
                )
        if node.args:
            first = node.args[0]
            return not (
                isinstance(first, ast.Constant) and first.value is False
            )
        return False

    # Nested functions get their own scope/pass; do not descend.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return


class CachedArrayMutationRule(LintRule):
    """MUT001: in-place mutation of cached model/inference arrays."""

    rule_id: ClassVar[str] = "MUT001"
    summary: ClassVar[str] = (
        "arrays returned by cache accessors "
        "(prefix_distribution/evolution/coverage_vector/probe_matrix, "
        "_arrival_events/_ensure_entries/_sorted_entries, "
        "dist_full/dist_absent) "
        "must not be mutated"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.tree is None:
            return
        scopes: List[Optional[AnyFunctionDef]] = [None]
        scopes.extend(iter_function_defs(module.tree))
        for scope in scopes:
            walker = _FunctionTaint(self, module)
            body = module.tree.body if scope is None else scope.body
            for statement in body:
                walker.visit(statement)
            yield from walker.findings
