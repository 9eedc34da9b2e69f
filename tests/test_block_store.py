"""The columnar store path against the n = 1 adapters, for every scheme.

The production pipeline stores whole block matrices
(:meth:`CompressionBackend.store_batch` →
:meth:`MemoryController.record_stored_batch`), writes kernel stores back
into the controllers' address-indexed :class:`BlockStore` from the replay
engine, and reads the degraded inputs back with one gather per controller.
The scalar oracle stores and reads one block at a time
(:meth:`MemoryController.store_block`, :meth:`~MemoryController.read_block`,
:meth:`~MemoryController.stored_data`).  Every scheme of the registry —
the SLC variants and every lossless scheme — must leave both in the same
state, block by block.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.spec import KNOWN_SCHEMES
from repro.campaign.worker import build_backend
from repro.core.metadata_cache import MetadataCache
from repro.gpu.backends import STORE_SLICE_ROWS, NoCompressionBackend
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig
from repro.gpu.memory_controller import BlockStore, MemoryController
from repro.gpu.simulator import GPUSimulator
from repro.gpu.trace import AccessType, MemoryAccess, MemoryTrace
from repro.replay import replay_trace, replay_trace_scalar
from repro.utils.blocks import array_to_blocks, block_matrix
from repro.workloads.base import Region

CONFIG = GPUConfig()
INTERLEAVE = GPUSimulator.CHANNEL_INTERLEAVE_BLOCKS


def _regions(seed: int = 3) -> dict[str, Region]:
    """Smooth (compressible, lossy-prone) floats, integers and an output."""
    rng = np.random.default_rng(seed)
    smooth = np.cumsum(rng.normal(0, 0.01, 3000)).astype(np.float32)
    counts = rng.integers(0, 50, 1100).astype(np.int32)
    return {
        "smooth": Region("smooth", smooth, approximable=True),
        "counts": Region("counts", counts, approximable=False),
        "out": Region("out", (smooth[:900] * 2).astype(np.float32),
                      approximable=True, is_output=True),
    }


@pytest.fixture(params=("uncompressed", *KNOWN_SCHEMES))
def backend_factory(request):
    """A fresh, trained backend per call, one parametrization per scheme."""
    training = array_to_blocks(_regions()["smooth"].array)[::3]

    def make():
        if request.param == "uncompressed":
            return NoCompressionBackend()
        backend = build_backend(request.param, CONFIG)
        backend.train(training)
        return backend

    make.lossy = request.param.startswith("TSLC")
    return make


def _controllers(backend, n: int = 3) -> list[MemoryController]:
    return [MemoryController(i, backend, mdc_entries=64) for i in range(n)]


def _state(controllers: list[MemoryController]) -> list:
    return [
        (
            dataclasses.asdict(c.stats),
            list(c.mdc._entries.items()),
            dataclasses.asdict(c.mdc.stats),
            c.stored_items(),
        )
        for c in controllers
    ]


def _layout(regions, blocks):
    bases, next_block = {}, 0
    for name in regions:
        bases[name] = next_block
        next_block += blocks[name].shape[0]
    return bases


def _store_scalar(controllers, regions, blocks, bases) -> None:
    for name, region in regions.items():
        for index, row in enumerate(blocks[name]):
            address = bases[name] + index
            controllers[(address // INTERLEAVE) % len(controllers)].store_block(
                address, row.tobytes(), approximable=region.approximable,
                count_traffic=False,
            )


def test_store_batch_rows_equal_per_block_store(backend_factory):
    blocks = block_matrix(_regions()["smooth"].array)
    batched, scalar = backend_factory(), backend_factory()
    batch = batched.store_batch(blocks)
    assert len(batch) == blocks.shape[0]
    assert batch.blocks is blocks
    assert batch.lossy.any() == backend_factory.lossy
    assert batch.degraded.shape == (int(batch.lossy.sum()), blocks.shape[1])
    assert list(batch) == [scalar.store(row.tobytes()) for row in blocks]
    assert vars(batched).keys() == vars(scalar).keys()
    for name, value in vars(scalar).items():
        if isinstance(value, int):
            assert getattr(batched, name) == value, name


def test_store_batch_slices_are_invisible(monkeypatch, backend_factory):
    """Slicing the kernels over rows changes no entry and no counter."""
    import repro.gpu.backends as backends

    blocks = block_matrix(_regions()["smooth"].array)
    whole, sliced = backend_factory(), backend_factory()
    expected = list(whole.store_batch(blocks))
    monkeypatch.setattr(backends, "STORE_SLICE_ROWS", 7)
    assert list(sliced.store_batch(blocks)) == expected
    assert STORE_SLICE_ROWS > 7


def test_host_copy_matches_per_block_stores(backend_factory):
    regions = {k: r for k, r in _regions().items() if not r.is_output}
    blocks = {name: block_matrix(r.array) for name, r in regions.items()}
    bases = _layout(regions, blocks)
    backend = backend_factory()
    columnar = _controllers(backend)
    GPUSimulator()._store_inputs(backend, columnar, regions, blocks, bases)
    scalar = _controllers(backend_factory())
    _store_scalar(scalar, regions, blocks, bases)
    assert _state(columnar) == _state(scalar)

    # n = 1 reads agree, and so does the whole-region gather
    for a, b in zip(columnar, scalar):
        addresses = a.storage.entries["address"]
        gathered = a.storage.gather(addresses)
        for address, row in zip(addresses.tolist(), gathered):
            assert a.stored_data(address) == b.stored_data(address) == row.tobytes()
            assert a.read_block(address) == b.read_block(address)
    assert _state(columnar) == _state(scalar)


def test_replay_write_back_matches_scalar_replay(backend_factory):
    regions = _regions()
    blocks = {name: block_matrix(r.array) for name, r in regions.items()}
    bases = _layout(regions, blocks)
    inputs = {k: r for k, r in regions.items() if not r.is_output}
    trace = MemoryTrace()
    rng = np.random.default_rng(11)
    for name in ("smooth", "counts", "out", "smooth", "out"):
        n = blocks[name].shape[0]
        for index in rng.integers(0, n, 40).tolist():
            kind = AccessType.WRITE if rng.random() < 0.5 else AccessType.READ
            trace.append(MemoryAccess(name, index, kind))
    states = []
    for engine in (replay_trace, replay_trace_scalar):
        backend = backend_factory()
        controllers = _controllers(backend)
        GPUSimulator()._store_inputs(backend, controllers, inputs, blocks, bases)
        l2 = SetAssociativeCache(4 * 128, line_bytes=128, ways=2)
        engine(trace, all_regions=regions, region_blocks=blocks,
               base_addresses=bases, l2=l2, controllers=controllers,
               interleave_blocks=INTERLEAVE)
        states.append(_state(controllers))
    assert states[0] == states[1]


def test_degraded_readback_matches_per_block_join(backend_factory):
    regions = {k: r for k, r in _regions().items() if not r.is_output}
    blocks = {name: block_matrix(r.array) for name, r in regions.items()}
    bases = _layout(regions, blocks)
    simulator = GPUSimulator()
    backend = backend_factory()
    controllers = _controllers(backend)
    simulator._store_inputs(backend, controllers, regions, blocks, bases)
    readback = simulator._degraded_inputs(regions, blocks, bases, controllers)
    for name, region in regions.items():
        joined = b"".join(
            controllers[(address // INTERLEAVE) % len(controllers)].stored_data(address)
            for address in range(bases[name], bases[name] + blocks[name].shape[0])
        )
        expected = np.frombuffer(joined[: region.array.nbytes], region.array.dtype)
        np.testing.assert_array_equal(readback[name], expected)
        if not any(len(c.storage.foreign(bases[name], blocks[name])) for c in controllers):
            # nothing degraded: a read-only view of the region, not a copy
            assert np.shares_memory(readback[name], region.array)
            assert not readback[name].flags.writeable


def test_block_store_holds_lossless_data_by_reference():
    matrix = np.arange(4 * 128, dtype=np.uint8).reshape(4, 128)
    store = BlockStore(128)
    store.put([12, 10], 2, 100, False, matrix, [3, 1])
    assert len(store) == 2
    assert store.matrices == [matrix] and store.matrices[0] is matrix
    assert store.entries["address"].tolist() == [10, 12]
    assert store.block(12).data == matrix[3].tobytes()
    assert store.block(11) is None and store.block(99) is None
    assert store.stored_bursts([10, 11, 12, 99], default=4).tolist() == [2, 4, 2, 4]
    np.testing.assert_array_equal(store.gather([12, 10]), matrix[[3, 1]])
    # rows read as their own block of the matrix are not foreign
    assert store.foreign(9, matrix).tolist() == []
    assert store.foreign(11, matrix).tolist() == [12]
    # re-storing an address replaces its entry; out-of-order inserts stay sorted
    degraded = np.zeros((1, 128), np.uint8)
    store.put([12, 5], 1, 40, True, degraded, [0, 0])
    assert store.entries["address"].tolist() == [5, 10, 12]
    assert store.block(12) == store.block(5)
    assert store.block(12).lossy and store.block(12).data == bytes(128)
    assert store.foreign(9, matrix).tolist() == [12]


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 6),
    resident=st.lists(st.integers(0, 12), max_size=8, unique=True),
    stream=st.lists(st.tuples(st.integers(0, 12), st.integers(1, 4)), max_size=12),
)
def test_mdc_update_many_matches_sequential_updates(capacity, resident, stream):
    """Batched MDC refreshes (host copy) equal per-pair ``update`` calls."""
    batched = MetadataCache(capacity_entries=capacity)
    sequential = MetadataCache(capacity_entries=capacity)
    for cache in (batched, sequential):
        for address in resident:
            cache.update(address, 2)
    batched.update_many([a for a, _ in stream], [b for _, b in stream])
    for address, bursts in stream:
        sequential.update(address, bursts)
    assert list(batched._entries.items()) == list(sequential._entries.items())
    assert batched.stats == sequential.stats
