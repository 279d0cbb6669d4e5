"""A small extent-based file system.

Ransomware encrypts *files*; recovery is judged by whether file
contents survive.  ``SimpleFS`` keeps each file in one contiguous
extent of logical pages on the underlying block device, stores real
bytes, and exposes exactly the operations the attack models need:
create, read, overwrite (in place or via rename), delete, and
"secure delete" via trim.

The file system's metadata (the extent table) lives in host memory, as
it would in the page cache; the paper's threat model lets ransomware
corrupt it freely -- RSSD's recovery works from flash-level history,
not from file-system metadata.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.host.blockdev import HostBlockDevice


class FileSystemError(Exception):
    """Raised for file-system level failures (no space, missing file, ...)."""


@dataclass
class FileRecord:
    """Metadata of one file: name, extent and logical size."""

    name: str
    start_lba: int
    reserved_pages: int
    size_bytes: int

    @property
    def end_lba(self) -> int:
        """First LBA past the file's extent."""
        return self.start_lba + self.reserved_pages


class SimpleFS:
    """An extent-based file system over a :class:`HostBlockDevice`."""

    def __init__(self, blockdev: HostBlockDevice, reserved_pages: int = 0) -> None:
        self.blockdev = blockdev
        self._files: Dict[str, FileRecord] = {}
        # Simple bump allocator with a free list of reclaimed extents.
        self._next_free_lba = reserved_pages
        self._free_extents: List[tuple] = []

    # -- namespace ---------------------------------------------------------

    def list_files(self) -> List[str]:
        """Names of all live files, sorted."""
        return sorted(self._files)

    def exists(self, name: str) -> bool:
        return name in self._files

    def stat(self, name: str) -> FileRecord:
        """Return the metadata record of ``name``."""
        record = self._files.get(name)
        if record is None:
            raise FileSystemError(f"no such file: {name}")
        return record

    @property
    def file_count(self) -> int:
        return len(self._files)

    @property
    def used_pages(self) -> int:
        return sum(record.reserved_pages for record in self._files.values())

    # -- allocation ---------------------------------------------------------

    def _pages_for(self, size_bytes: int) -> int:
        page_size = self.blockdev.page_size
        return max(1, (size_bytes + page_size - 1) // page_size)

    def _allocate_extent(self, pages: int) -> int:
        for index, (start, length) in enumerate(self._free_extents):
            if length >= pages:
                remaining = (start + pages, length - pages)
                if remaining[1] > 0:
                    self._free_extents[index] = remaining
                else:
                    self._free_extents.pop(index)
                return start
        start = self._next_free_lba
        if start + pages > self.blockdev.capacity_pages:
            raise FileSystemError(
                f"no space: need {pages} pages, device has "
                f"{self.blockdev.capacity_pages - start} unallocated"
            )
        self._next_free_lba += pages
        return start

    def free_pages_remaining(self) -> int:
        """Pages still allocatable (bump region + free-list extents)."""
        free_listed = sum(length for _, length in self._free_extents)
        return (self.blockdev.capacity_pages - self._next_free_lba) + free_listed

    # -- file operations -----------------------------------------------------

    def create_file(self, name: str, data: bytes) -> FileRecord:
        """Create ``name`` with ``data`` as its content."""
        if name in self._files:
            raise FileSystemError(f"file already exists: {name}")
        if not data:
            raise FileSystemError("cannot create an empty file")
        pages = self._pages_for(len(data))
        start_lba = self._allocate_extent(pages)
        self.blockdev.write_bytes(start_lba * self.blockdev.page_size, data)
        record = FileRecord(
            name=name, start_lba=start_lba, reserved_pages=pages, size_bytes=len(data)
        )
        self._files[name] = record
        return record

    def read_file(self, name: str) -> bytes:
        """Read the full content of ``name``."""
        record = self.stat(name)
        return self.blockdev.read_bytes(
            record.start_lba * self.blockdev.page_size, record.size_bytes
        )

    def overwrite_file(self, name: str, data: bytes) -> FileRecord:
        """Overwrite ``name`` in place (the classic ransomware pattern).

        If the new content needs more pages than the original extent the
        file is reallocated, which is how in-place encryption of a file
        that grows (header + ciphertext) behaves.
        """
        record = self.stat(name)
        pages_needed = self._pages_for(len(data))
        if pages_needed > record.reserved_pages:
            self.delete_file(name, trim=False)
            return self.create_file(name, data)
        self.blockdev.write_bytes(record.start_lba * self.blockdev.page_size, data)
        record.size_bytes = len(data)
        return record

    def delete_file(self, name: str, trim: bool = False) -> FileRecord:
        """Delete ``name``; with ``trim=True`` also trim its extent.

        Trimming tells the SSD the pages are dead -- on an unmodified
        device this physically erases the data soon after, which is the
        lever the trimming attack pulls.
        """
        record = self._files.pop(name, None)
        if record is None:
            raise FileSystemError(f"no such file: {name}")
        if trim:
            self.blockdev.trim_pages(record.start_lba, record.reserved_pages)
        self._free_extents.append((record.start_lba, record.reserved_pages))
        return record

    def rename_file(self, old: str, new: str) -> FileRecord:
        """Rename ``old`` to ``new`` (metadata only)."""
        if new in self._files:
            raise FileSystemError(f"target already exists: {new}")
        record = self._files.pop(old, None)
        if record is None:
            raise FileSystemError(f"no such file: {old}")
        record.name = new
        self._files[new] = record
        return record

    def file_lbas(self, name: str) -> List[int]:
        """The logical pages backing ``name`` (used by forensic backtracking)."""
        record = self.stat(name)
        used_pages = self._pages_for(record.size_bytes)
        return list(range(record.start_lba, record.start_lba + used_pages))

    # -- bulk helpers used by scenarios -----------------------------------------

    def populate(
        self, count: int, file_size_bytes: int, prefix: str = "doc", seed: int = 11
    ) -> List[str]:
        """Create ``count`` files of compressible pseudo-text content.

        Each file is the words a loop of ``rng.choice(words)`` on
        ``random.Random(seed)`` would pick, each followed by a space, cut
        to ``file_size_bytes``.  ``choice`` over 12 words keeps the top 4 bits of one 32-bit
        Mersenne Twister word and redraws while they are 12 or more, so
        the words are drawn in bulk and that rejection is replayed on
        them.  The rng is local, so drawing past the last file is free.
        """
        rng = random.Random(seed)
        words = [
            word + b" "
            for word in (
                b"storage", b"flash", b"report", b"quarter", b"meeting", b"budget",
                b"photo", b"draft", b"model", b"results", b"backup", b"invoice",
            )
        ]
        lengths = np.array([len(word) for word in words])
        # Enough words to fill a file even if every one is the shortest.
        per_file = -(-file_size_bytes // int(lengths.min()))
        pending = np.empty(0, dtype=np.uint32)
        names = []
        for index in range(count):
            while len(pending) < per_file:
                draws = (per_file - len(pending)) * 4 // 3 + 16
                top_bits = np.frombuffer(
                    rng.getrandbits(32 * draws).to_bytes(4 * draws, "little"), dtype="<u4"
                ) >> 28
                pending = np.concatenate([pending, top_bits[top_bits < len(words)]])
            starts = np.cumsum(lengths[pending]) - lengths[pending]
            chosen = pending[: int(np.searchsorted(starts, file_size_bytes))]
            pending = pending[len(chosen) :]
            data = b"".join(map(words.__getitem__, chosen.tolist()))[:file_size_bytes]
            name = f"{prefix}_{index:05d}.txt"
            self.create_file(name, data)
            names.append(name)
        return names
