"""Passive span tracing around the public calls of each simulator layer.

The tracer records one span per wrapped call -- name, start, end and the
span that was open when the call began -- in flat in-memory arrays, and
writes them out only when the run ends.  Wrappers are installed from
here, around public functions and methods of ``repro``; nothing under
``src/`` is edited, and :meth:`Tracer.uninstall` restores every original
attribute.

A layer's *self time* is its span's duration minus the part covered by
its child spans.  All wrapped calls run synchronously on one thread, so
the children of one span never overlap each other and the covered part
is simply the sum of the children's durations.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

NO_PARENT = -1


class Tracer:
    """Span recorder plus the registry of attributes it has patched."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span named ``name`` per call.

        ``on_result`` (optional) sees each call's return value, for counts
        that only the returned object exposes.
        """
        name_id = self._intern(name)
        stack = self._stack
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else NO_PARENT)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, **kwargs) -> None:
        """Trace ``cls.attr`` and every subclass's own override of it.

        Plain methods, ``classmethod`` objects and property getters are
        wrapped in place, keeping their kind.
        """
        for klass in _class_tree(cls):
            raw = klass.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                patched: object = classmethod(self.wrap(name, raw.__func__, **kwargs))
            elif isinstance(raw, property):
                patched = property(
                    self.wrap(name, raw.fget, **kwargs), raw.fset, raw.fdel, raw.__doc__
                )
            elif inspect.isfunction(raw):
                patched = self.wrap(name, raw, **kwargs)
            else:
                raise TypeError(f"cannot trace {klass.__name__}.{attr}: {raw!r}")
            setattr(klass, attr, patched)
            self._patched.append((klass, attr, raw))

    def patch_function(self, fn: Callable, name: str, **kwargs) -> None:
        """Trace a module-level function under every ``repro`` binding of it.

        Modules that did ``from module import fn`` hold their own
        reference, so each loaded ``repro`` module attribute that *is*
        ``fn`` is replaced by the same wrapper.
        """
        traced = self.wrap(name, fn, **kwargs)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._patched.append((module, attr, fn))

    def patch_dict(self, mapping: dict, key: str, wrapper: Callable) -> None:
        """Replace ``mapping[key]`` by ``wrapper(mapping[key])``."""
        original = mapping[key]
        mapping[key] = wrapper(original)
        self._patched.append((mapping, key, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copies of (name_id, start, end, parent) as NumPy arrays."""
        return (
            np.array(self.name_id, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.parent, dtype=np.int64),
        )

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        name_id, start, end, parent = self.arrays()
        return self_time_by_name(self.names, name_id, start, end, parent)

    def inclusive_children_of(self, root: str) -> Dict[str, float]:
        """Total duration per name of the spans whose parent is a ``root`` span."""
        name_id, start, end, parent = self.arrays()
        if root not in self._name_ids:
            return {}
        root_id = self._name_ids[root]
        has_parent = parent >= 0
        under_root = np.zeros(len(parent), dtype=bool)
        under_root[has_parent] = name_id[parent[has_parent]] == root_id
        totals = np.bincount(
            name_id[under_root], weights=(end - start)[under_root], minlength=len(self.names)
        )
        return {name: float(totals[i]) for i, name in enumerate(self.names) if totals[i]}

    def write(self, path: str) -> None:
        """Write every span as ``name start end parent`` lines (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("index\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            for index, (nid, start, end, parent) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent)
            ):
                handle.write(f"{index}\t{names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def self_time_by_name(
    names: List[str],
    name_id: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    parent: np.ndarray,
) -> Dict[str, float]:
    """Sum, per name, of each span's duration minus its children's durations."""
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    totals = np.bincount(name_id, weights=duration - covered, minlength=len(names))
    return {name: float(totals[i]) for i, name in enumerate(names)}


def _class_tree(cls: type) -> Iterable[type]:
    seen = set()
    pending = [cls]
    while pending:
        klass = pending.pop()
        if klass in seen:
            continue
        seen.add(klass)
        yield klass
        pending.extend(klass.__subclasses__())
