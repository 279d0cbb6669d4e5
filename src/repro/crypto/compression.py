"""Compression substrate.

Two layers are provided:

* :class:`Compressor` -- a real, self-contained byte-level compressor
  (run-length + dictionary back-references, LZ77-flavoured) used when
  actual payloads are present (file-system examples, recovery tests).
* :class:`CompressionModel` -- a ratio model used for descriptor-only
  pages during trace-driven runs, where carrying real bytes for
  terabytes of traffic would be impossible.  It maps a page's entropy
  class to the compression ratio RSSD's offload engine would achieve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.ssd.flash import PageContent


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one payload or page descriptor."""

    original_size: int
    compressed_size: int

    def __post_init__(self) -> None:
        if self.original_size < 0 or self.compressed_size < 0:
            raise ValueError("sizes must be non-negative")

    @property
    def ratio(self) -> float:
        """Compressed / original size (1.0 means incompressible)."""
        if self.original_size == 0:
            return 1.0
        return self.compressed_size / self.original_size

    @property
    def savings_bytes(self) -> int:
        return max(0, self.original_size - self.compressed_size)


class Compressor:
    """A small LZ77-style compressor for real payloads.

    Format (per token):
    * literal run: ``0x00 | length(2) | bytes``
    * back-reference: ``0x01 | distance(2) | length(2)``

    The implementation favours clarity over speed -- it is only used on
    small working sets.
    """

    _LITERAL = 0
    _MATCH = 1

    def __init__(self, window_size: int = 4096, min_match: int = 4) -> None:
        if window_size < 16:
            raise ValueError("window_size must be at least 16 bytes")
        if window_size > 0xFFFF:
            raise ValueError("window_size must fit the 2-byte distance field (<= 65535)")
        if min_match < 3:
            raise ValueError("min_match must be at least 3 bytes")
        self.window_size = window_size
        self.min_match = min_match

    def compress(self, data: bytes) -> bytes:
        """Compress ``data``; the result always round-trips via :meth:`decompress`."""
        if not data:
            return b""
        tokens: List[bytes] = []
        literals = bytearray()
        position = 0
        length = len(data)
        while position < length:
            match_distance, match_length = self._find_match(data, position)
            if match_length >= self.min_match:
                if literals:
                    tokens.append(self._literal_token(bytes(literals)))
                    literals.clear()
                tokens.append(self._match_token(match_distance, match_length))
                position += match_length
            else:
                literals.append(data[position])
                position += 1
                if len(literals) == 0xFFFF:
                    tokens.append(self._literal_token(bytes(literals)))
                    literals.clear()
        if literals:
            tokens.append(self._literal_token(bytes(literals)))
        return b"".join(tokens)

    def decompress(self, compressed: bytes) -> bytes:
        """Reverse :meth:`compress`."""
        output = bytearray()
        position = 0
        length = len(compressed)
        while position < length:
            token_type = compressed[position]
            position += 1
            if token_type == self._LITERAL:
                run_length = int.from_bytes(compressed[position : position + 2], "big")
                position += 2
                output.extend(compressed[position : position + run_length])
                position += run_length
            elif token_type == self._MATCH:
                distance = int.from_bytes(compressed[position : position + 2], "big")
                match_length = int.from_bytes(
                    compressed[position + 2 : position + 4], "big"
                )
                position += 4
                if distance == 0 or distance > len(output):
                    raise ValueError("corrupt stream: invalid back-reference")
                start = len(output) - distance
                for offset in range(match_length):
                    output.append(output[start + offset])
            else:
                raise ValueError(f"corrupt stream: unknown token type {token_type}")
        return bytes(output)

    def measure(self, data: bytes) -> CompressionResult:
        """Compress and report sizes without keeping the output."""
        return CompressionResult(
            original_size=len(data), compressed_size=len(self.compress(data))
        )

    # -- token helpers -------------------------------------------------------

    def _literal_token(self, literals: bytes) -> bytes:
        return bytes([self._LITERAL]) + len(literals).to_bytes(2, "big") + literals

    def _match_token(self, distance: int, length: int) -> bytes:
        return (
            bytes([self._MATCH])
            + distance.to_bytes(2, "big")
            + length.to_bytes(2, "big")
        )

    def _find_match(self, data: bytes, position: int) -> tuple:
        """First longest match for ``data[position:]`` inside the sliding window.

        Candidates start in ``[position - window_size, position - min_match]``
        and are visited left to right.  Once a match of ``best_length``
        bytes is known, only a candidate sharing ``best_length + 1`` bytes
        can replace it, so ``find`` searches for that longer probe; its end
        bound keeps the candidate range the same as for the shortest probe.
        """
        best_distance = 0
        best_length = 0
        max_length = min(len(data) - position, 0xFFFF)
        if max_length < self.min_match:
            return 0, 0
        last_candidate = position - self.min_match
        search_from = max(0, position - self.window_size)
        want = self.min_match
        while True:
            candidate = data.find(
                data[position : position + want], search_from, last_candidate + want
            )
            if candidate == -1:
                break
            best_length = _common_prefix(data, candidate, position, want, max_length)
            best_distance = position - candidate
            if best_length == max_length:
                break
            want = best_length + 1
            search_from = candidate + 1
        return best_distance, best_length


def _common_prefix(data: bytes, first: int, second: int, known: int, limit: int) -> int:
    """Length of the common prefix of ``data[first:]`` and ``data[second:]``.

    The caller knows the first ``known`` bytes agree and that
    ``second + limit <= len(data)``; the result is capped at ``limit``.
    Chunks are compared as big-endian integers: the highest set bit of
    their XOR is the first byte that differs.
    """
    length = known
    chunk = 64
    while length < limit:
        size = min(chunk, limit - length)
        diff = int.from_bytes(
            data[first + length : first + length + size], "big"
        ) ^ int.from_bytes(data[second + length : second + length + size], "big")
        if diff:
            return length + size - 1 - (diff.bit_length() - 1) // 8
        length += size
        chunk <<= 1
    return length


class CompressionModel:
    """Ratio model for descriptor-only pages.

    The per-page ``compress_ratio`` attribute already encodes the
    expected ratio (derived from entropy for real payloads, or set by
    the workload generators for synthetic pages).  The model adds a
    fixed per-page metadata overhead, mirroring the container format the
    offload engine uses.
    """

    def __init__(self, per_page_overhead_bytes: int = 32) -> None:
        if per_page_overhead_bytes < 0:
            raise ValueError("per_page_overhead_bytes must be non-negative")
        self.per_page_overhead_bytes = per_page_overhead_bytes

    def compress_page(self, content: PageContent) -> CompressionResult:
        """Estimated compression outcome for one page."""
        compressed = content.compressed_size() + self.per_page_overhead_bytes
        compressed = min(compressed, content.length + self.per_page_overhead_bytes)
        return CompressionResult(
            original_size=content.length, compressed_size=compressed
        )

    def compress_pages(self, contents: List[PageContent]) -> CompressionResult:
        """Aggregate compression outcome for a batch of pages."""
        original = sum(content.length for content in contents)
        compressed = sum(self.compress_page(content).compressed_size for content in contents)
        return CompressionResult(original_size=original, compressed_size=compressed)
