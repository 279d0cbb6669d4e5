"""Content-addressed result cache shared by every sweep path.

Re-running an unchanged cell is wasted work: ``ScenarioSpec.spec_hash``
already identifies a cell's *entire* input (names, sizes, resolved
seeds), and the golden suites prove execution is bit-identical across
backends -- so a stored result is as good as a fresh one.  This module
exploits that: a :class:`ResultCache` stores each cell's JSON payload
under a key derived from ``(spec_hash, artifact_version,
code_fingerprint)``, and :func:`~repro.campaign.sweep.run_sweep` lets
every sweep kind serve cells from the store instead of executing them,
with hit/miss/invalidation accounting surfaced through
:class:`CacheStats`.

Invalidation is structural, never time-based:

* a different **spec** (any name, size or resolved seed) changes the
  spec hash, so the lookup simply misses;
* a different **artifact schema version** or **code fingerprint**
  (:func:`code_fingerprint` hashes every ``repro`` source file) makes a
  stored entry *stale*: it is counted, ignored and overwritten.

The module depends only on the standard library, like the runner, so
low-level callers can use it without pulling in the defense layers.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Environment variable overriding :func:`code_fingerprint` (the fault
#: -injection and invalidation tests pin it to known values).
FINGERPRINT_ENV = "REPRO_CODE_FINGERPRINT"

_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path and contents).

    Any edit to the package changes the fingerprint, which invalidates
    every cached result -- the blunt but safe answer to "is this stored
    result still what the current code would produce?".  Computed once
    per process; the ``REPRO_CODE_FINGERPRINT`` environment variable
    overrides it (tests use this to simulate a code change without
    editing files).
    """
    env = os.environ.get(FINGERPRINT_ENV)
    if env:
        return env
    global _fingerprint_cache
    if _fingerprint_cache is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        sources: List[str] = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    sources.append(os.path.join(dirpath, name))
        for path in sources:
            digest.update(os.path.relpath(path, root).encode("utf-8"))
            digest.update(b"\x00")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\x00")
        _fingerprint_cache = digest.hexdigest()
    return _fingerprint_cache


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one sweep's cache use."""

    #: Cells served from the store instead of being executed.
    hits: int = 0
    #: Cells with no usable entry (executed, then stored).
    misses: int = 0
    #: Entries found but invalidated by an artifact-version or
    #: code-fingerprint change (counted inside ``misses`` too).
    stale: int = 0
    #: Fresh results written to the store.
    stores: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready view (for reports and sidecar files)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "stores": self.stores,
        }

    def summary(self) -> str:
        """One-line human-readable form for CLI reports."""
        return (
            f"{self.hits} hits, {self.misses} misses "
            f"({self.stale} stale), {self.stores} stored"
        )


class ResultCache:
    """A directory of content-addressed cell results.

    Entries live at ``root/objects/<kind>/<hh>/<spec_hash>.json`` where
    ``kind`` namespaces the payload shape (``campaign-cell``,
    ``roc-cell``, ``ablation-cell``, ``fuzz-cell``) and ``hh`` is the first hash byte,
    keeping directories small on million-cell sweeps.  Each entry is a
    JSON envelope recording the artifact schema version and code
    fingerprint it was produced under; :meth:`get` refuses (and counts
    as *stale*) entries from other versions or fingerprints.

    Writes are atomic (temp file + ``os.replace``), so a killed run
    never leaves a torn entry behind; unreadable entries are treated as
    misses, never as errors.
    """

    def __init__(self, root: str, fingerprint: Optional[str] = None) -> None:
        """Open (creating on demand) the cache rooted at ``root``.

        ``fingerprint`` overrides :func:`code_fingerprint` -- tests use
        it to simulate code changes without touching the environment.
        """
        self.root = root
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = CacheStats()

    def entry_path(self, kind: str, spec_hash: str) -> str:
        """Filesystem path of the entry for ``(kind, spec_hash)``."""
        return os.path.join(
            self.root, "objects", kind, spec_hash[:2], f"{spec_hash}.json"
        )

    def get(self, kind: str, spec_hash: str, artifact_version: int) -> Optional[object]:
        """The stored payload, or ``None`` on a miss or stale entry."""
        path = self.entry_path(kind, spec_hash)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        if (
            envelope.get("artifact_version") != artifact_version
            or envelope.get("code_fingerprint") != self.fingerprint
        ):
            self.stats.stale += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return envelope.get("payload")

    def put(
        self, kind: str, spec_hash: str, artifact_version: int, payload: object
    ) -> None:
        """Store ``payload`` for ``(kind, spec_hash)``, atomically."""
        path = self.entry_path(kind, spec_hash)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        envelope = {
            "kind": kind,
            "spec_hash": spec_hash,
            "artifact_version": artifact_version,
            "code_fingerprint": self.fingerprint,
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stats.stores += 1
