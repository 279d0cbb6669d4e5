"""Concurrency rules (REPRO-C4xx).

The process backend of :class:`repro.campaign.runner.ExperimentRunner`
pickles its callables; lambdas, closures and local classes fail at
runtime only when someone finally selects ``backend="process"`` --
usually on the largest campaign of the sweep.  Module-level mutable
state is the other silent hazard: it is shared under the thread backend
and silently *not* shared under the process backend, so results depend
on the backend choice.

* ``REPRO-C401`` -- a lambda or locally defined callable handed to
  ``ExperimentRunner.map``/``imap`` or passed as ``run_sweep``'s
  ``cell_fn`` (unless the receiver is provably never the process
  backend).
* ``REPRO-C402`` -- module-level mutable state (lowercase dict / list /
  set bindings) in a simulation layer.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.context import FileContext
from repro.lint.findings import Finding

#: Mutable constructors flagged at module level in sim layers.
MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "collections.defaultdict", "defaultdict",
     "collections.deque", "deque", "collections.OrderedDict", "OrderedDict"}
)

#: Position of ``cell_fn`` in ``run_sweep(kind, version, seed, describe,
#: specs, cell_fn, ...)``.
RUN_SWEEP_CELL_FN = 5


def check_file(ctx: FileContext) -> List[Finding]:
    """Run every concurrency rule over one file context."""
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            findings.extend(_check_submission(node, ctx))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            findings.extend(_check_module_mutable(node, ctx))
    return findings


def _check_submission(node: ast.Call, ctx: FileContext) -> List[Finding]:
    """REPRO-C401: pickle-unsafe callables submitted to a pool."""
    fn: Optional[ast.AST] = None
    where = ""
    chain = ctx.resolve(node.func)
    if chain is not None and chain.rpartition(".")[2] == "run_sweep":
        fn = _argument(node, RUN_SWEEP_CELL_FN, "cell_fn")
        where = "run_sweep"
    elif (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in ("map", "imap")
        and node.args
    ):
        if not _receiver_is_runner(node.func.value, ctx):
            return []
        if _receiver_never_process(node.func.value, ctx):
            return []
        fn = node.args[0]
        where = f"ExperimentRunner.{node.func.attr}"
    if fn is None:
        return []
    reason = _unpicklable_reason(fn, ctx)
    if reason is None:
        return []
    return [
        Finding(
            path=ctx.rel_path,
            line=fn.lineno,
            col=fn.col_offset,
            rule="REPRO-C401",
            message=(
                f"{reason} submitted to {where}; the process backend "
                "pickles its callables, so pass a module-level function"
            ),
        )
    ]


def _argument(node: ast.Call, position: int, name: str) -> Optional[ast.AST]:
    """The call's argument at ``position`` or passed as keyword ``name``."""
    if len(node.args) > position:
        return node.args[position]
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _receiver_is_runner(receiver: ast.AST, ctx: FileContext) -> bool:
    """Heuristic: does the receiver look like an ExperimentRunner?

    A name assigned from ``ExperimentRunner(...)`` in the same scope,
    or any name/attribute containing ``runner``, counts.  ``.map`` on
    other objects (pandas, executors) stays out of scope.
    """
    assigned = _runner_constructor_for(receiver, ctx)
    if assigned is not None:
        return True
    if isinstance(receiver, ast.Name):
        return "runner" in receiver.id.lower()
    if isinstance(receiver, ast.Attribute):
        return "runner" in receiver.attr.lower()
    return False


def _receiver_never_process(receiver: ast.AST, ctx: FileContext) -> bool:
    """True when the receiver's backend is statically never ``"process"``.

    Only a local ``ExperimentRunner(backend=<literal>)`` construction
    can prove this; anything dynamic is assumed pickling-capable.
    """
    call = _runner_constructor_for(receiver, ctx)
    if call is None:
        return False
    for keyword in call.keywords:
        if keyword.arg == "backend":
            values = _literal_string_values(keyword.value)
            if values is not None and "process" not in values:
                return True
    return False


def _runner_constructor_for(
    receiver: ast.AST, ctx: FileContext
) -> Optional[ast.Call]:
    """The local ``ExperimentRunner(...)`` call bound to this receiver."""
    if not isinstance(receiver, ast.Name):
        return None
    scope = ctx.enclosing_function(receiver)
    found: Optional[ast.Call] = None
    for node in ast.walk(scope if scope is not None else ctx.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == receiver.id
            for target in node.targets
        ):
            continue
        if isinstance(node.value, ast.Call):
            chain = ctx.resolve(node.value.func)
            if chain is not None and chain.rpartition(".")[2] == "ExperimentRunner":
                found = node.value
    return found


def _literal_string_values(node: ast.AST) -> Optional[List[str]]:
    """Every string the expression can evaluate to, if fully literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        left = _literal_string_values(node.body)
        right = _literal_string_values(node.orelse)
        if left is not None and right is not None:
            return left + right
    return None


def _unpicklable_reason(fn: ast.AST, ctx: FileContext) -> Optional[str]:
    """Why this callable expression cannot be pickled, if it cannot."""
    if isinstance(fn, ast.Lambda):
        return "lambda"
    if isinstance(fn, ast.Name):
        definition = _local_definition(fn.id, fn, ctx)
        if definition is not None:
            if isinstance(definition, ast.ClassDef):
                return f"locally defined class {fn.id!r}"
            return f"locally defined function {fn.id!r}"
    if isinstance(fn, ast.Call):
        chain = ctx.resolve(fn.func)
        if chain in ("functools.partial", "partial"):
            for arg in fn.args[:1]:
                reason = _unpicklable_reason(arg, ctx)
                if reason is not None:
                    return f"partial over a {reason}"
    return None


def _local_definition(
    name: str, use: ast.AST, ctx: FileContext
) -> Optional[ast.AST]:
    """A nested def/class binding ``name`` in the use-site's scope."""
    scope = ctx.enclosing_function(use)
    if scope is None or isinstance(scope, ast.Lambda):
        return None
    for node in ast.walk(scope):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name == name
        ):
            return node
    return None


def _check_module_mutable(node: ast.AST, ctx: FileContext) -> List[Finding]:
    """REPRO-C402: module-level mutable state in simulation layers."""
    if ctx.layer is None or not ctx.layer.sim:
        return []
    if not ctx.at_module_level(node):
        return []
    target = _single_name_target(node)
    if target is None:
        return []
    name = target.id
    bare = name.strip("_")
    if not bare or bare.isupper() or (name.startswith("__") and name.endswith("__")):
        return []
    value: Optional[ast.AST] = getattr(node, "value", None)
    if not _is_mutable_expr(value, ctx):
        return []
    return [
        Finding(
            path=ctx.rel_path,
            line=node.lineno,
            col=node.col_offset,
            rule="REPRO-C402",
            message=(
                f"module-level mutable {name!r} in a simulation layer; it is "
                "shared under the thread backend and per-process under the "
                "process backend, so results depend on the backend -- move "
                "it into session state or freeze it (tuple/frozenset) and "
                "rename it UPPER_CASE"
            ),
        )
    ]


def _single_name_target(node: ast.AST) -> Optional[ast.Name]:
    """The single Name target of an assignment, if that is its shape."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        if isinstance(target, ast.Name):
            return target
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        if node.value is not None:
            return node.target
    return None


def _is_mutable_expr(value: Optional[ast.AST], ctx: FileContext) -> bool:
    """True for expressions that build a mutable container."""
    if value is None:
        return False
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                          ast.SetComp, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        chain = ctx.resolve(value.func)
        return chain in MUTABLE_CALLS
    return False
