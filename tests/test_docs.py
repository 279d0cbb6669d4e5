"""Documentation gates: docstring coverage, doc references, doc links.

These tests are the locally-runnable core of the CI ``docs`` job:

* every public symbol in the documented packages (``repro.campaign``
  -- the ``repro.campaign.sweep`` driver included -- ``repro.api``,
  ``repro.nvmeoe``, ``repro.forensics``, ...) must carry a docstring
  (the mkdocs API reference is generated from them);
* every ``::: identifier`` mkdocstrings directive in ``docs/`` must
  resolve to a real importable object;
* every relative link in ``docs/`` and every page in the ``mkdocs.yml``
  nav must point at a file that exists.

``mkdocs build --strict`` itself runs in CI (and here, when mkdocs is
installed) as the final arbiter.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:  # PyYAML ships with the docs toolchain, not the base test env.
    import yaml
except ImportError:  # pragma: no cover - exercised only in minimal envs
    yaml = None

REPO_ROOT = Path(__file__).parent.parent
DOCS_DIR = REPO_ROOT / "docs"
MKDOCS_YML = REPO_ROOT / "mkdocs.yml"

#: Packages whose public API the mkdocs site documents.
DOCUMENTED_PACKAGES = [
    "repro.ablation",
    "repro.api",
    "repro.attacks",
    "repro.campaign",
    "repro.lint",
    "repro.nvmeoe",
    "repro.forensics",
    "repro.scenarios",
]


def iter_package_modules(package_name: str):
    package = importlib.import_module(package_name)
    yield package_name, package
    for info in pkgutil.iter_modules(package.__path__, prefix=package_name + "."):
        yield info.name, importlib.import_module(info.name)


def public_symbols(module_name: str, module):
    """(qualified name, object) for every public symbol ``module`` defines."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; documented where it is defined
        yield f"{module_name}.{name}", obj
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if isinstance(attr, property):
                    yield f"{module_name}.{name}.{attr_name}", attr.fget
                elif inspect.isfunction(attr):
                    yield f"{module_name}.{name}.{attr_name}", attr
                elif isinstance(attr, (classmethod, staticmethod)):
                    yield f"{module_name}.{name}.{attr_name}", attr.__func__


class TestDocstringCoverage:
    @pytest.mark.parametrize("package_name", DOCUMENTED_PACKAGES)
    def test_every_public_symbol_has_a_docstring(self, package_name):
        missing = []
        for module_name, module in iter_package_modules(package_name):
            if not (module.__doc__ or "").strip():
                missing.append(module_name)
            for qualname, obj in public_symbols(module_name, module):
                if not (getattr(obj, "__doc__", None) or "").strip():
                    missing.append(qualname)
        assert not missing, (
            "public symbols without docstrings (the API reference renders "
            "these pages):\n  " + "\n  ".join(sorted(set(missing)))
        )

    def test_the_sweep_driver_is_gated(self):
        gated = {
            module_name
            for package_name in DOCUMENTED_PACKAGES
            for module_name, _ in iter_package_modules(package_name)
        }
        assert "repro.campaign.sweep" in gated


def mkdocstrings_directives():
    directives = []
    for path in sorted(DOCS_DIR.rglob("*.md")):
        for line in path.read_text(encoding="utf-8").splitlines():
            match = re.match(r"^:::\s+([\w.]+)\s*$", line)
            if match:
                directives.append((path, match.group(1)))
    return directives


class TestDocReferences:
    def test_there_are_api_reference_directives(self):
        assert len(mkdocstrings_directives()) >= 10

    def test_every_mkdocstrings_directive_resolves(self):
        broken = []
        for path, identifier in mkdocstrings_directives():
            module_name, obj = identifier, None
            while module_name:
                if importlib.util.find_spec(module_name) is not None:
                    obj = importlib.import_module(module_name)
                    break
                module_name = module_name.rpartition(".")[0]
            if obj is None:
                broken.append(f"{path.name}: {identifier}")
                continue
            remainder = identifier[len(module_name) :].lstrip(".")
            target = obj
            for part in [p for p in remainder.split(".") if p]:
                target = getattr(target, part, None)
                if target is None:
                    broken.append(f"{path.name}: {identifier}")
                    break
        assert not broken, "unresolvable mkdocstrings references:\n  " + "\n  ".join(
            broken
        )

    def test_every_documented_module_appears_in_the_api_reference(self):
        documented = {identifier for _, identifier in mkdocstrings_directives()}
        missing = []
        for package_name in DOCUMENTED_PACKAGES:
            for module_name, _ in iter_package_modules(package_name):
                if module_name not in documented:
                    missing.append(module_name)
        assert not missing, (
            "modules missing from docs/api/*.md:\n  " + "\n  ".join(missing)
        )


def iter_nav_pages(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, list):
        for item in node:
            yield from iter_nav_pages(item)
    elif isinstance(node, dict):
        for value in node.values():
            yield from iter_nav_pages(value)


class TestDocLinks:
    @pytest.mark.skipif(yaml is None, reason="PyYAML not installed")
    def test_nav_pages_exist(self):
        config = yaml.safe_load(MKDOCS_YML.read_text(encoding="utf-8"))
        pages = list(iter_nav_pages(config["nav"]))
        assert pages, "mkdocs nav is empty"
        missing = [page for page in pages if not (DOCS_DIR / page).is_file()]
        assert not missing, f"mkdocs nav points at missing files: {missing}"

    def test_relative_links_resolve(self):
        broken = []
        for path in sorted(DOCS_DIR.rglob("*.md")):
            text = path.read_text(encoding="utf-8")
            for target in re.findall(r"\[[^\]]*\]\(([^)\s]+)\)", text):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = (path.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    broken.append(f"{path.relative_to(REPO_ROOT)} -> {target}")
        assert not broken, "broken relative links in docs/:\n  " + "\n  ".join(broken)

    @pytest.mark.skipif(yaml is None, reason="PyYAML not installed")
    def test_strict_mode_is_enabled(self):
        config = yaml.safe_load(MKDOCS_YML.read_text(encoding="utf-8"))
        assert config.get("strict") is True


@pytest.mark.skipif(
    shutil.which("mkdocs") is None
    or importlib.util.find_spec("mkdocs_material") is None
    or importlib.util.find_spec("mkdocstrings") is None,
    reason="mkdocs toolchain not installed (CI docs job installs it)",
)
def test_mkdocs_build_strict(tmp_path):
    """The real thing, when the toolchain is available."""
    result = subprocess.run(
        [sys.executable, "-m", "mkdocs", "build", "--strict", "-d", str(tmp_path / "site")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
