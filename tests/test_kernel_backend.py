"""The pluggable kernel execution backend (``REPRO_KERNEL_BACKEND``).

Pins the selection logic (environment parsing, numba fallback), the shard
helper's contract, and — most importantly — that the threaded backend is
bit-exact against the default NumPy path for every kernel that routes
through it: the lossless size kernels, the Fig. 4 decision kernel and the
Huffman payload codec.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.compression.e2mc import SymbolModel
from repro.core.config import SLCConfig
from repro.kernels import backend
from repro.kernels.decision import analyze_code_lengths
from repro.kernels.lossless import (
    bdi_size_bits,
    bpc_size_bits,
    cpack_size_bits,
    fpc_size_bits,
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)


# --------------------------------------------------------------------- #
# selection


def test_default_backend_is_numpy():
    assert backend.requested_backend() == "numpy"
    assert backend.active_backend() == "numpy"


@pytest.mark.parametrize("name", backend.VALID_BACKENDS)
def test_valid_backends_are_accepted(monkeypatch, name):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", f"  {name.upper()} ")
    assert backend.requested_backend() == name


def test_invalid_backend_falls_back_to_numpy(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cuda")
    assert backend.requested_backend() == "numpy"
    assert backend.active_backend() == "numpy"


def test_numba_request_degrades_silently_when_unavailable(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
    monkeypatch.setattr(backend, "numba_available", lambda: False)
    assert backend.requested_backend() == "numba"
    assert backend.active_backend() == "numpy"


def test_numba_request_sticks_when_available(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
    monkeypatch.setattr(backend, "numba_available", lambda: True)
    assert backend.active_backend() == "numba"


def test_thread_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
    assert backend.thread_workers() == 3
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "garbage")
    assert backend.thread_workers() >= 1


# --------------------------------------------------------------------- #
# shard helper


def test_shard_ranges_cover_exactly():
    for n in (1, 2, 7, 100, 1000):
        for parts in (1, 2, 3, 8, n + 5):
            ranges = backend.shard_ranges(n, parts)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == n
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo
            assert all(hi > lo for lo, hi in ranges)
            assert len(ranges) <= min(parts, n)


def test_run_sharded_is_none_on_numpy_backend():
    assert backend.run_sharded(lambda lo, hi: (lo, hi), 10_000) is None


def test_run_sharded_is_none_below_threshold(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "threaded")
    assert backend.run_sharded(lambda lo, hi: (lo, hi), 8) is None


def test_run_sharded_splits_and_orders(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "threaded")
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "4")
    shards = backend.run_sharded(lambda lo, hi: (lo, hi), 1000)
    assert shards is not None and len(shards) == 4
    assert shards[0][0] == 0 and shards[-1][1] == 1000
    flattened = [bound for shard in shards for bound in shard]
    assert flattened == sorted(flattened)


def test_run_sharded_propagates_worker_exception(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "threaded")
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")

    def boom(lo, hi):
        raise RuntimeError("shard failed")

    with pytest.raises(RuntimeError, match="shard failed"):
        backend.run_sharded(boom, 10_000)


def _shard_in_child(queue) -> None:
    queue.put(backend.run_sharded(lambda lo, hi: hi - lo, 1000))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_run_sharded_works_in_a_forked_child(monkeypatch):
    """A forked campaign worker must not reuse the parent's thread pool."""
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "threaded")
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
    both_running = threading.Barrier(2, timeout=30)

    def meet(lo, hi):  # forces the parent's pool to start both threads
        both_running.wait()
        return hi - lo

    assert backend.run_sharded(meet, 1000) == [500, 500]
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_shard_in_child, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=30) == [500, 500]
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert not child.is_alive()


# --------------------------------------------------------------------- #
# bit-exactness of the threaded backend


def _random_blocks(n: int, block_bytes: int = 128) -> list[bytes]:
    rng = np.random.default_rng(7)
    # a mix of compressible (low-entropy) and incompressible blocks
    raw = rng.integers(0, 256, size=(n, block_bytes), dtype=np.uint8)
    raw[:: 3] >>= 6
    raw[1::5] = 0
    return [row.tobytes() for row in raw]


@pytest.mark.parametrize(
    "kernel", [bdi_size_bits, fpc_size_bits, cpack_size_bits, bpc_size_bits]
)
def test_lossless_kernels_threaded_bit_exact(monkeypatch, kernel):
    blocks = _random_blocks(700)
    expected = kernel(blocks)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "threaded")
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "4")
    assert np.array_equal(kernel(blocks), expected)


def test_decision_kernel_threaded_bit_exact(monkeypatch):
    rng = np.random.default_rng(11)
    config = SLCConfig()
    lengths = rng.integers(1, 17, size=(900, config.symbols_per_block)).astype(
        np.int64
    )
    expected = analyze_code_lengths(config, lengths, trained=True)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "threaded")
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "4")
    sharded = analyze_code_lengths(config, lengths, trained=True)
    for field in (
        "mode",
        "comp_size_bits",
        "stored_size_bits",
        "bit_budget_bits",
        "extra_bits",
        "bursts",
        "approx_start",
        "approx_count",
        "bits_removed",
        "used_extra_node",
    ):
        assert np.array_equal(getattr(sharded, field), getattr(expected, field)), field


def test_codec_threaded_bit_exact(monkeypatch):
    rng = np.random.default_rng(13)
    model = SymbolModel(max_table_entries=64, max_code_length=12)
    model.fit_counts({symbol: 1 << min(symbol, 20) for symbol in range(48)})
    lut = model.codec_table()
    # mostly tabled symbols, with a sprinkle of escapes (>= 48 is untabled)
    rows = [rng.integers(0, 56, size=64).astype(np.int64) for _ in range(600)]
    flat = np.concatenate(rows)
    counts = np.asarray([row.size for row in rows], dtype=np.int64)
    packed, row_bits = lut.encode_rows(flat.astype(np.uint16), counts)
    payloads = [data for data, _ in lut.payloads_from_rows(packed, row_bits)]
    expected = lut.decode_rows(payloads, row_bits, counts)

    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "threaded")
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "4")
    assert np.array_equal(lut.decode_rows(payloads, row_bits, counts), expected)
    packed_threaded, bits_threaded = lut.encode_rows(flat.astype(np.uint16), counts)
    assert np.array_equal(bits_threaded, row_bits)
    assert np.array_equal(packed_threaded, packed)
