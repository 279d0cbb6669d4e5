"""Serialization rules (REPRO-S3xx).

Artifacts are the repo's long-lived contract: a schema change that is
not accompanied by a version bump silently corrupts golden comparisons
and cache hits.  These rules guard that contract statically:

* ``REPRO-S301`` -- a dataclass reachable from a schema root changed
  its serialized fields without a bump of the schema's version
  constant.
* ``REPRO-S302`` -- the pinned fingerprint file is out of date (missing
  a schema, or recording a stale shape after a legitimate version
  bump); regenerate it with ``repro lint --write-schema-fingerprint``.
* ``REPRO-S303`` -- ``json.dump``/``json.dumps`` without
  ``sort_keys=True`` in a simulation layer (artifact JSON must be
  canonical byte-for-byte).

Field extraction is purely static: the non-``compare=False`` fields of
every ``@dataclass`` (plus those it inherits from dataclass bases) are
read from the AST, and reachability from each schema root follows class
names mentioned in field annotations (including quoted forward
references, and the annotations of dataclass bases), resolved through
each file's import bindings.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.layers import LayerModel, SchemaSpec

#: Pinned fingerprint shipped with the package.
DEFAULT_FINGERPRINT_PATH = Path(__file__).with_name("schema_fingerprint.json")

#: Version tag of the fingerprint file format itself.
FINGERPRINT_SCHEMA = 1

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def check_json_dump(ctx: FileContext) -> List[Finding]:
    """REPRO-S303: canonical-JSON discipline in simulation layers."""
    if ctx.layer is None or not ctx.layer.sim:
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = ctx.resolve(node.func)
        if chain not in ("json.dump", "json.dumps"):
            continue
        sort_keys = None
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                sort_keys = keyword.value
        is_true = isinstance(sort_keys, ast.Constant) and sort_keys.value is True
        if not is_true:
            findings.append(
                Finding(
                    path=ctx.rel_path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="REPRO-S303",
                    message=(
                        f"{chain}(...) without sort_keys=True; artifact JSON "
                        "must be canonical (sorted keys) so byte-identical "
                        "runs produce byte-identical files"
                    ),
                )
            )
    return findings


# -- static dataclass field extraction --------------------------------------


def _dataclass_fields(node: ast.ClassDef, ctx: FileContext) -> Optional[List[str]]:
    """Serialized field names of a ``@dataclass``, or ``None`` if not one.

    Fields declared with ``field(compare=False, ...)`` are excluded:
    they are diagnostics by convention (``cache_stats``,
    ``cells_resumed``) and not part of the schema identity.
    """
    is_dataclass = False
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if ctx.resolve(target) in ("dataclass", "dataclasses.dataclass"):
            is_dataclass = True
    if not is_dataclass:
        return None
    fields: List[str] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(
            stmt.target, ast.Name
        ):
            continue
        if isinstance(stmt.annotation, ast.Subscript):
            base = ctx.resolve(stmt.annotation.value)
            if base in ("ClassVar", "typing.ClassVar"):
                continue
        if _is_compare_false_field(stmt.value, ctx):
            continue
        fields.append(stmt.target.id)
    return fields


def _is_compare_false_field(value: Optional[ast.AST], ctx: FileContext) -> bool:
    """True for ``field(compare=False, ...)`` default expressions."""
    if not isinstance(value, ast.Call):
        return False
    if ctx.resolve(value.func) not in ("field", "dataclasses.field"):
        return False
    for keyword in value.keywords:
        if keyword.arg == "compare":
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
            )
    return False


def _annotation_identifiers(node: ast.AnnAssign) -> List[str]:
    """Class-name candidates mentioned in one field annotation.

    Uses the unparsed annotation text so quoted forward references
    (``"CellResult"``) contribute their identifiers too.
    """
    try:
        text = ast.unparse(node.annotation)
    except Exception:  # pragma: no cover - unparse failure is theoretical
        return []
    return _IDENT_RE.findall(text)


class _ClassIndex:
    """All dataclasses across the analyzed files, addressable by name."""

    def __init__(self, contexts: Mapping[str, FileContext]) -> None:
        """Index every ``@dataclass`` in ``contexts`` (module -> context)."""
        self.contexts = contexts
        self.by_module: Dict[Tuple[str, str], Tuple[ast.ClassDef, FileContext]] = {}
        self.by_name: Dict[str, List[Tuple[str, ast.ClassDef, FileContext]]] = {}
        for module, ctx in contexts.items():
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if _dataclass_fields(node, ctx) is None:
                    continue
                self.by_module[(module, node.name)] = (node, ctx)
                self.by_name.setdefault(node.name, []).append((module, node, ctx))

    def resolve_name(
        self, name: str, ctx: FileContext
    ) -> Optional[Tuple[str, ast.ClassDef, FileContext]]:
        """Resolve an identifier seen in ``ctx`` to a known dataclass.

        Same-module definitions win; otherwise the file's import
        bindings decide; a globally unique class name is accepted as a
        last resort.
        """
        if ctx.module is not None:
            entry = self.by_module.get((ctx.module, name))
            if entry is not None:
                return (ctx.module, entry[0], entry[1])
        origin = ctx.import_bindings.get(name)
        if origin is not None and "." in origin:
            module, _, symbol = origin.rpartition(".")
            entry = self.by_module.get((module, symbol))
            if entry is not None:
                return (module, entry[0], entry[1])
        candidates = self.by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None


def fingerprint_schemas(
    contexts: Mapping[str, FileContext], model: LayerModel
) -> Dict[str, object]:
    """Compute the current fingerprint of every schema in the layer table.

    The result maps schema name to its version-constant value and the
    sorted serialized fields of every dataclass reachable from its
    root.  Schemas whose module is not among ``contexts`` are omitted
    (e.g. when linting a subtree).
    """
    index = _ClassIndex(contexts)
    schemas: Dict[str, object] = {}
    for spec in model.schemas:
        ctx = contexts.get(spec.module)
        if ctx is None:
            continue
        schemas[spec.name] = {
            "version": _version_value(ctx, spec),
            "classes": _reachable_fields(spec, ctx, index),
        }
    return {"schema": FINGERPRINT_SCHEMA, "schemas": schemas}


def _version_value(ctx: FileContext, spec: SchemaSpec) -> Optional[int]:
    """Value of the schema's module-level version constant, if literal."""
    for node in ctx.tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == spec.version_const:
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(value.value, int):
                    return value.value
    return None


def _reachable_fields(
    spec: SchemaSpec, root_ctx: FileContext, index: _ClassIndex
) -> Dict[str, List[str]]:
    """Fields of every dataclass reachable from the schema root."""
    result: Dict[str, List[str]] = {}
    start = index.resolve_name(spec.root, root_ctx)
    if start is None:
        return result
    queue = [start]
    seen = {(start[0], start[1].name)}
    while queue:
        module, node, ctx = queue.pop()
        lineage = _lineage(node, ctx, index)
        fields = [name for cls, cls_ctx in lineage for name in _dataclass_fields(cls, cls_ctx) or []]
        result[f"{module}.{node.name}"] = sorted(fields)
        for cls, cls_ctx in lineage:
            for stmt in cls.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                for ident in _annotation_identifiers(stmt):
                    entry = index.resolve_name(ident, cls_ctx)
                    if entry is None:
                        continue
                    key = (entry[0], entry[1].name)
                    if key not in seen:
                        seen.add(key)
                        queue.append(entry)
    return result


def _lineage(
    node: ast.ClassDef, ctx: FileContext, index: _ClassIndex
) -> List[Tuple[ast.ClassDef, FileContext]]:
    """The class followed by its dataclass ancestors (inherited fields)."""
    lineage = [(node, ctx)]
    for cls, cls_ctx in lineage:
        for base in cls.bases:
            if isinstance(base, ast.Name):
                entry = index.resolve_name(base.id, cls_ctx)
                if entry is not None and all(entry[1] is not c for c, _ in lineage):
                    lineage.append((entry[1], entry[2]))
    return lineage


def check_schemas(
    contexts: Mapping[str, FileContext],
    model: LayerModel,
    pinned_path: Optional[Path] = None,
) -> List[Finding]:
    """REPRO-S301/S302: compare current schema shapes to the pinned file."""
    path = pinned_path or DEFAULT_FINGERPRINT_PATH
    current = fingerprint_schemas(contexts, model)
    current_schemas: Dict[str, Dict[str, object]] = current["schemas"]  # type: ignore[assignment]
    if not current_schemas:
        return []
    if not path.exists():
        return [
            _schema_finding(
                contexts, model, name,
                "REPRO-S302",
                f"schema '{name}' has no pinned fingerprint "
                f"({path.name} missing); run "
                "'repro lint --write-schema-fingerprint' and commit the file",
            )
            for name in sorted(current_schemas)
        ]
    pinned = json.loads(path.read_text(encoding="utf-8"))
    pinned_schemas: Dict[str, Dict[str, object]] = pinned.get("schemas", {})
    findings: List[Finding] = []
    for name in sorted(current_schemas):
        now = current_schemas[name]
        then = pinned_schemas.get(name)
        if then is None:
            findings.append(
                _schema_finding(
                    contexts, model, name,
                    "REPRO-S302",
                    f"schema '{name}' is not in the pinned fingerprint; "
                    "regenerate with 'repro lint --write-schema-fingerprint'",
                )
            )
            continue
        fields_changed = now["classes"] != then.get("classes")
        version_changed = now["version"] != then.get("version")
        if fields_changed and not version_changed:
            drift = _describe_drift(then.get("classes", {}), now["classes"])  # type: ignore[arg-type]
            spec = _spec_for(model, name)
            const = spec.version_const if spec else "its version constant"
            findings.append(
                _schema_finding(
                    contexts, model, name,
                    "REPRO-S301",
                    f"schema '{name}' changed serialized fields ({drift}) "
                    f"without bumping {const}; bump the constant and "
                    "regenerate the fingerprint",
                )
            )
        elif fields_changed or version_changed:
            findings.append(
                _schema_finding(
                    contexts, model, name,
                    "REPRO-S302",
                    f"pinned fingerprint for schema '{name}' is stale after "
                    "a version bump; regenerate with "
                    "'repro lint --write-schema-fingerprint'",
                )
            )
    return findings


def _describe_drift(
    then: Dict[str, List[str]], now: Dict[str, object]
) -> str:
    """Short human description of which classes drifted."""
    changed = sorted(
        set(then) ^ set(now)
        | {name for name in set(then) & set(now) if then[name] != now[name]}
    )
    return ", ".join(changed) if changed else "field drift"


def _spec_for(model: LayerModel, name: str) -> Optional[SchemaSpec]:
    """The schema spec with the given fingerprint key."""
    for spec in model.schemas:
        if spec.name == name:
            return spec
    return None


def _schema_finding(
    contexts: Mapping[str, FileContext],
    model: LayerModel,
    name: str,
    rule: str,
    message: str,
) -> Finding:
    """Anchor a schema-level finding at the schema module's first line."""
    spec = _spec_for(model, name)
    ctx = contexts.get(spec.module) if spec else None
    return Finding(
        path=ctx.rel_path if ctx else (spec.module if spec else name),
        line=1,
        col=0,
        rule=rule,
        message=message,
    )


def write_fingerprint(
    contexts: Mapping[str, FileContext],
    model: LayerModel,
    path: Optional[Path] = None,
) -> Path:
    """Write the current fingerprint as canonical JSON; returns the path."""
    target = path or DEFAULT_FINGERPRINT_PATH
    payload = fingerprint_schemas(contexts, model)
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target
