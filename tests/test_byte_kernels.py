"""Byte kernels against their reference loops.

Each kernel below replaced a per-byte Python loop and must reproduce it
bit for bit: the same bytes, the same float (not merely a close one) and,
where it draws from an rng, the same rng state afterwards.  The reference
loops are kept here verbatim as oracles.
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import provision_environment
from repro.attacks.adaptive import shape_entropy
from repro.attacks.gc_attack import GCAttack, random_junk
from repro.crypto.cipher import StreamCipher, keystream_bytes
from repro.crypto.compression import Compressor
from repro.host.filesystem import FileSystemError
from repro.ssd.device import SSD
from repro.ssd.errors import SSDError
from repro.ssd.flash import shannon_entropy
from repro.ssd.geometry import SSDGeometry

WORDS = [
    b"storage", b"flash", b"report", b"quarter", b"meeting", b"budget",
    b"photo", b"draft", b"model", b"results", b"backup", b"invoice",
]


# ---------------------------------------------------------------------------
# Reference loops (verbatim)
# ---------------------------------------------------------------------------

def reference_shannon_entropy(data):
    if not data:
        return 0.0
    counts = {}
    for byte in data:
        counts[byte] = counts.get(byte, 0) + 1
    total = len(data)
    entropy = 0.0
    for count in counts.values():
        probability = count / total
        entropy -= probability * math.log2(probability)
    return entropy


def reference_junk(rng, size):
    return bytes(rng.getrandbits(8) for _ in range(size))


def reference_encrypt(key, plaintext, nonce):
    stream = keystream_bytes(key, nonce, len(plaintext))
    return bytes(p ^ s for p, s in zip(plaintext, stream))


def reference_keystream(key, nonce, length):
    blocks = []
    counter = 0
    produced = 0
    while produced < length:
        block = hashlib.sha256(
            key + nonce.to_bytes(16, "big", signed=False) + counter.to_bytes(8, "big")
        ).digest()
        blocks.append(block)
        produced += len(block)
        counter += 1
    return b"".join(blocks)[:length]


def reference_find_match(self, data, position):
    best_distance = 0
    best_length = 0
    window_start = max(0, position - self.window_size)
    max_length = min(len(data) - position, 0xFFFF)
    if max_length < self.min_match:
        return 0, 0
    probe = data[position : position + self.min_match]
    search_from = window_start
    while True:
        candidate = data.find(probe, search_from, position)
        if candidate == -1:
            break
        length = self.min_match
        while (
            length < max_length
            and data[candidate + length] == data[position + length]
        ):
            length += 1
        if length > best_length:
            best_length = length
            best_distance = position - candidate
        search_from = candidate + 1
    return best_distance, best_length


class ReferenceCompressor(Compressor):
    _find_match = reference_find_match


def reference_populate_data(count, file_size_bytes, seed=11):
    rng = random.Random(seed)
    files = []
    for _ in range(count):
        chunks = []
        size = 0
        while size < file_size_bytes:
            word = rng.choice(WORDS) + b" "
            chunks.append(word)
            size += len(word)
        files.append(b"".join(chunks)[:file_size_bytes])
    return files


def reference_shape_entropy(data, bits_per_symbol):
    if bits_per_symbol == 8:
        return data
    out = bytearray()
    accumulator = 0
    pending_bits = 0
    mask = (1 << bits_per_symbol) - 1
    for byte in data:
        accumulator = (accumulator << 8) | byte
        pending_bits += 8
        while pending_bits >= bits_per_symbol:
            pending_bits -= bits_per_symbol
            out.append((accumulator >> pending_bits) & mask)
            accumulator &= (1 << pending_bits) - 1
    if pending_bits:
        out.append((accumulator << (bits_per_symbol - pending_bits)) & mask)
    return bytes(out)


class ReferenceGCAttack(GCAttack):
    def _fill_capacity(self, env):
        junk_written = 0
        page_size = env.blockdev.page_size
        target_free = int(env.blockdev.capacity_pages * (1.0 - self.fill_fraction))
        with self._as_attacker(env):
            for index in range(self.max_junk_files):
                if env.fs.free_pages_remaining() <= max(target_free, self.junk_file_pages):
                    break
                junk = bytes(
                    self.rng.getrandbits(8) for _ in range(page_size * self.junk_file_pages)
                )
                try:
                    env.fs.create_file(f".cache_{index:06d}.bin", junk)
                except (FileSystemError, SSDError):
                    break
                junk_written += self.junk_file_pages
        return junk_written


# ---------------------------------------------------------------------------
# Inputs: arbitrary bytes plus the shapes the simulator feeds these kernels
# ---------------------------------------------------------------------------

def word_salad(seed, size):
    rng = random.Random(seed)
    text = b"".join(rng.choice(WORDS) + b" " for _ in range(size // 5 + 1))
    return text[:size]


byte_inputs = st.one_of(
    st.binary(max_size=1),
    st.binary(max_size=2048),
    st.builds(lambda value, size: bytes([value]) * size, st.integers(0, 255), st.integers(1, 4096)),
    st.builds(word_salad, st.integers(0, 2**32), st.integers(1, 8192)),
    st.builds(lambda seed: random.Random(seed).randbytes(32 * 1024), st.integers(0, 2**32)),
)

FIXED_INPUTS = [
    b"",
    b"\x00",
    b"\xff",
    b"a" * 4096,
    word_salad(3, 8192),
    random.Random(5).randbytes(32 * 1024),
]


# ---------------------------------------------------------------------------
# Oracle tests
# ---------------------------------------------------------------------------

class TestShannonEntropy:
    @given(data=byte_inputs)
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_float_exactly(self, data):
        assert shannon_entropy(data) == reference_shannon_entropy(data)

    @pytest.mark.parametrize("data", FIXED_INPUTS, ids=lambda d: f"{len(d)}B")
    def test_fixed_inputs_are_python_floats(self, data):
        entropy = shannon_entropy(data)
        assert type(entropy) is float
        assert repr(entropy) == repr(reference_shannon_entropy(data))


class TestGCAttackJunk:
    @given(seed=st.integers(0, 2**64), size=st.integers(0, 32 * 1024))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_bytes_and_rng_state(self, seed, size):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert random_junk(ours, size) == reference_junk(theirs, size)
        assert ours.getstate() == theirs.getstate()

    def test_fill_capacity_matches_reference(self):
        runs = []
        for attack_type in (GCAttack, ReferenceGCAttack):
            env = provision_environment(
                SSD(geometry=SSDGeometry.tiny()), victim_files=6, file_size_bytes=8192
            )
            attack = attack_type(fill_fraction=0.9)
            outcome = attack.execute(env)
            files = {name: env.fs.read_file(name) for name in env.fs.list_files()}
            runs.append((outcome.junk_pages_written, files, attack.rng.getstate()))
        assert runs[0][0] > 0
        assert runs[0] == runs[1]


class TestStreamCipher:
    @given(data=byte_inputs, nonce=st.integers(0, 2**128 - 1))
    @settings(max_examples=60, deadline=None)
    def test_encrypt_matches_reference(self, data, nonce):
        key = b"byte-kernel-key"
        assert StreamCipher(key).encrypt(data, nonce) == reference_encrypt(key, data, nonce)

    @given(nonce=st.integers(0, 2**128 - 1), length=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_keystream_matches_reference(self, nonce, length):
        key = b"k"
        assert keystream_bytes(key, nonce, length) == reference_keystream(key, nonce, length)

    @pytest.mark.parametrize("nonce", [1 << 128, 1 << 130, -1])
    def test_keystream_rejects_nonces_outside_128_bits(self, nonce):
        with pytest.raises(ValueError, match="nonce"):
            keystream_bytes(b"k", nonce, 16)
        with pytest.raises(ValueError, match="nonce"):
            StreamCipher(b"k").encrypt(b"abc", nonce)

    def test_largest_nonce_is_accepted(self):
        cipher = StreamCipher(b"k")
        nonce = (1 << 128) - 1
        assert cipher.decrypt(cipher.encrypt(b"abc", nonce), nonce) == b"abc"


class TestCompressor:
    @given(
        data=byte_inputs,
        window_size=st.sampled_from([16, 64, 4096, 0xFFFF]),
        min_match=st.sampled_from([3, 4, 7]),
    )
    @settings(max_examples=60, deadline=None)
    def test_compress_matches_reference_and_round_trips(self, data, window_size, min_match):
        ours = Compressor(window_size=window_size, min_match=min_match)
        theirs = ReferenceCompressor(window_size=window_size, min_match=min_match)
        compressed = ours.compress(data)
        assert compressed == theirs.compress(data)
        assert ours.decompress(compressed) == data

    def test_long_runs_hit_the_length_cap(self):
        data = b"z" * 70_000 + b"tail"
        compressed = Compressor().compress(data)
        assert compressed == ReferenceCompressor().compress(data)
        assert Compressor().decompress(compressed) == data

    def test_rejects_windows_beyond_the_distance_field(self):
        with pytest.raises(ValueError, match="window_size"):
            Compressor(window_size=0xFFFF + 1)
        with pytest.raises(ValueError, match="window_size"):
            Compressor(window_size=100_000)
        Compressor(window_size=0xFFFF)


class TestPopulate:
    @given(
        count=st.integers(0, 4),
        file_size=st.integers(1, 9000),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_rng_choice_loop(self, count, file_size, seed):
        env = provision_environment(SSD(geometry=SSDGeometry.tiny()), victim_files=0)
        names = env.fs.populate(count, file_size, prefix="p", seed=seed)
        assert [env.fs.read_file(name) for name in names] == reference_populate_data(
            count, file_size, seed
        )


class TestShapeEntropy:
    @given(data=byte_inputs, bits_per_symbol=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_including_tail_padding(self, data, bits_per_symbol):
        assert shape_entropy(data, bits_per_symbol) == reference_shape_entropy(
            data, bits_per_symbol
        )
