"""Equivalence suite for the vectorized trace-replay engine.

The engine (:mod:`repro.replay`) must reproduce the scalar simulator's
counters **bit-exactly**: every component model (L2, MDC, DRAM) is checked
against its scalar oracle on targeted patterns and random streams, the full
engine is property-tested against the scalar reference loop on random
traces (including tiny caches that force evictions and the MDC slow path),
and whole simulations are compared result-for-result against the
all-scalar reference oracle (``reference=True``) over the paper's
workload x backend x MAG grid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import Job
from repro.campaign.worker import simulate_job
from repro.core.config import SLCConfig, SLCVariant
from repro.core.metadata_cache import MetadataCache
from repro.core.slc import SLCCompressor
from repro.gpu.backends import NoCompressionBackend, SLCBackend
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.dram import DRAMChannel, GDDR5Timing
from repro.gpu.memory_controller import MemoryController
from repro.gpu.trace import AccessType, MemoryAccess, MemoryTrace
from repro.replay import (
    replay_dram,
    replay_l2,
    replay_mdc,
    replay_trace,
    replay_trace_scalar,
)
from repro.utils.blocks import array_to_blocks, block_matrix
from repro.workloads.base import Region
from repro.workloads.registry import PAPER_WORKLOAD_ORDER

SCALE = 1.0 / 1024.0


# --------------------------------------------------------------------- #
# L2: array model vs. the scalar SetAssociativeCache oracle


def _cache_state(cache: SetAssociativeCache):
    return [list(s.items()) for s in cache._sets], vars(cache.stats).copy()


def _assert_l2_equivalent(addresses, is_write, counts, *, sets=4, ways=2):
    size = sets * ways * 128
    oracle = SetAssociativeCache(size, line_bytes=128, ways=ways)
    vector = SetAssociativeCache(size, line_bytes=128, ways=ways)
    oracle_miss = []
    for address, write, count in zip(addresses, is_write, counts):
        first_hit = oracle.access(address, is_write=write)
        oracle_miss.append(not first_hit)
        for _ in range(count - 1):
            oracle.access(address, is_write=write)
    vector_miss = replay_l2(
        vector,
        np.asarray(addresses),
        np.asarray(is_write),
        np.asarray(counts),
    )
    assert vector_miss.tolist() == oracle_miss
    assert _cache_state(vector) == _cache_state(oracle)


def test_l2_streaming_and_reuse():
    addresses = list(range(16)) + list(range(16))  # sweep twice
    _assert_l2_equivalent(addresses, [False] * 32, [1] * 32, sets=4, ways=2)


def test_l2_dirty_evictions_and_writebacks():
    # addresses 0, 4, 8, 12 all land in set 0 of a 4-set cache
    addresses = [0, 4, 0, 8, 12, 4, 0]
    is_write = [True, False, True, True, False, True, False]
    _assert_l2_equivalent(addresses, is_write, [1] * 7, sets=4, ways=2)


def test_l2_repeat_counts_are_hits():
    _assert_l2_equivalent([3, 3, 7], [False, True, False], [4, 2, 3])


def test_l2_replays_compose():
    oracle = SetAssociativeCache(1024, line_bytes=128, ways=2)
    vector = SetAssociativeCache(1024, line_bytes=128, ways=2)
    rng = np.random.default_rng(7)
    for _ in range(3):
        addresses = rng.integers(0, 24, size=50)
        writes = rng.random(50) < 0.3
        for address, write in zip(addresses.tolist(), writes.tolist()):
            oracle.access(address, is_write=write)
        replay_l2(vector, addresses, writes)
    assert _cache_state(vector) == _cache_state(oracle)


@given(
    accesses=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.booleans(),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=80,
    ),
    ways=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_l2_property_random_streams(accesses, ways):
    addresses = [a for a, _, _ in accesses]
    is_write = [w for _, w, _ in accesses]
    counts = [c for _, _, c in accesses]
    _assert_l2_equivalent(addresses, is_write, counts, sets=2, ways=ways)


def test_l2_rejects_negative_addresses():
    with pytest.raises(ValueError):
        replay_l2(SetAssociativeCache(1024), np.array([-1]), np.array([False]))


# --------------------------------------------------------------------- #
# MDC: array model vs. the scalar MetadataCache oracle


def _mdc_state(mdc: MetadataCache):
    return list(mdc._entries.items()), vars(mdc.stats).copy()


def _assert_mdc_equivalent(events, *, capacity, preload=()):
    oracle = MetadataCache(capacity_entries=capacity)
    vector = MetadataCache(capacity_entries=capacity)
    for address, value in preload:
        oracle.update(address, value)
        vector.update(address, value)
    oracle_hits = []
    for address, lookup, value in events:
        hit = oracle.lookup(address) is not None if lookup else False
        oracle_hits.append(hit)
        oracle.update(address, value)
    vector_hits = replay_mdc(
        vector,
        np.array([a for a, _, _ in events], dtype=np.int64),
        np.array([l for _, l, _ in events], dtype=np.bool_),
        np.array([v for _, _, v in events], dtype=np.int64),
    )
    assert vector_hits.tolist() == oracle_hits
    assert _mdc_state(vector) == _mdc_state(oracle)


def test_mdc_fast_path_no_evictions():
    events = [(1, True, 2), (2, False, 3), (1, True, 2), (3, True, 4), (2, True, 3)]
    _assert_mdc_equivalent(events, capacity=8, preload=[(3, 1)])


def test_mdc_slow_path_evictions():
    # capacity 2 with 4 distinct addresses: forces LRU evictions
    events = [(1, True, 1), (2, False, 2), (3, True, 3), (1, True, 1), (4, True, 4)]
    _assert_mdc_equivalent(events, capacity=2, preload=[(9, 2)])


@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.booleans(),
            st.integers(min_value=1, max_value=4),
        ),
        max_size=60,
    ),
    capacity=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_mdc_property_random_streams(events, capacity):
    _assert_mdc_equivalent(events, capacity=capacity, preload=[(100, 1), (101, 2)])


# --------------------------------------------------------------------- #
# DRAM: batched row scan vs. per-request service() (the edge cases the
# vectorized scan must honor: reset_rows between kernels, bank-conflict
# row thrash, open-row state carried across scans)


def _dram_state(channel: DRAMChannel):
    return dict(channel._open_rows), vars(channel.stats).copy()


def _assert_dram_equivalent(byte_addresses, bursts, *, channels=None, timing=None):
    oracle, vector = channels if channels else (
        DRAMChannel(timing=timing),
        DRAMChannel(timing=timing),
    )
    for address, burst in zip(byte_addresses, bursts):
        oracle.service(address, burst)
    replay_dram(vector, np.asarray(byte_addresses), np.asarray(bursts))
    assert _dram_state(vector) == _dram_state(oracle)


def test_dram_streaming_row_hits():
    addresses = [i * 128 for i in range(64)]
    _assert_dram_equivalent(addresses, [4] * 64)


def test_dram_bank_conflict_row_thrash():
    # Alternate between two rows that map to the same bank: every request
    # closes the other one's row, so the scan must count all misses and
    # charge precharge + activate on each.
    timing = GDDR5Timing()
    stride = timing.row_bytes * timing.num_banks  # same bank, next row
    addresses = [0, stride] * 32
    _assert_dram_equivalent(addresses, [2] * 64, timing=timing)


def test_dram_reset_rows_between_kernels():
    oracle = DRAMChannel()
    vector = DRAMChannel()
    addresses = [i * 128 for i in range(32)]
    _assert_dram_equivalent(addresses, [4] * 32, channels=(oracle, vector))
    first_kernel_misses = vector.stats.row_misses
    assert first_kernel_misses > 0
    oracle.reset_rows()
    vector.reset_rows()
    # Second kernel re-touches the same rows: all banks are precharged, so
    # the first request per bank must be a row miss again, with no
    # precharge charge.
    _assert_dram_equivalent(addresses, [1] * 32, channels=(oracle, vector))
    assert vector.stats.row_misses == 2 * first_kernel_misses


def test_dram_open_row_state_carries_across_scans():
    oracle = DRAMChannel()
    vector = DRAMChannel()
    addresses = [i * 128 for i in range(16)]
    _assert_dram_equivalent(addresses, [4] * 16, channels=(oracle, vector))
    # Without a reset, a second scan over the same addresses starts on the
    # open rows and must see row hits where the scalar model does.
    _assert_dram_equivalent(addresses, [4] * 16, channels=(oracle, vector))


def test_dram_rejects_zero_bursts():
    with pytest.raises(ValueError):
        replay_dram(DRAMChannel(), np.array([0]), np.array([0]))


@given(
    requests=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1, max_value=4),
        ),
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_dram_property_random_streams(requests):
    timing = GDDR5Timing(num_banks=2, row_bytes=256)
    addresses = [a * 128 for a, _ in requests]
    bursts = [b for _, b in requests]
    _assert_dram_equivalent(addresses, bursts, timing=timing)


# --------------------------------------------------------------------- #
# MDC-miss accounting on the controller miss path


def test_mdc_miss_fetches_worst_case_and_counts_extra_bursts():
    backend = NoCompressionBackend()

    class OneBurstBackend(NoCompressionBackend):
        def store(self, block, approximable=True):
            stored = super().store(block, approximable=approximable)
            return type(stored)(
                bursts=1, stored_bits=stored.stored_bits, data=stored.data
            )

    controller = MemoryController(0, OneBurstBackend(), mdc_entries=1)
    controller.store_block(0, bytes(128), count_traffic=False)
    controller.store_block(1, bytes(128), count_traffic=False)  # evicts 0's entry
    controller.read_block(0)  # MDC miss: fetch worst case (4), actual is 1
    assert controller.stats.read_bursts == 4
    assert controller.stats.mdc_extra_bursts == 3
    controller.read_block(0)  # entry refilled: fetch the actual single burst
    assert controller.stats.read_bursts == 5
    assert controller.stats.mdc_extra_bursts == 3


# --------------------------------------------------------------------- #
# full engine vs. the scalar reference loop (random traces, tiny caches)


def _make_state(seed: int, backend_kind: str, mdc_entries: int):
    """One complete replay context: regions, trained backend, controllers."""
    rng = np.random.default_rng(seed)
    arrays = {
        "inp": (rng.random(160) * 40).astype(np.float32),
        "out": np.zeros(96, dtype=np.float32),
    }
    regions = {
        "inp": Region(name="inp", array=arrays["inp"], approximable=True),
        "out": Region(name="out", array=arrays["out"], approximable=False, is_output=True),
    }
    region_blocks = {name: block_matrix(r.array, 128) for name, r in regions.items()}
    base_addresses, base = {}, 0
    for name in regions:
        base_addresses[name] = base
        base += len(region_blocks[name])

    if backend_kind == "slc":
        backend = SLCBackend(SLCCompressor(SLCConfig(variant=SLCVariant.OPT)))
        backend.train(array_to_blocks(arrays["inp"], 128))
    else:
        backend = NoCompressionBackend()
    controllers = [
        MemoryController(i, backend, mdc_entries=mdc_entries) for i in range(2)
    ]
    # host-to-device copy of the input region (not charged)
    for index, block in enumerate(region_blocks["inp"]):
        address = base_addresses["inp"] + index
        controllers[(address // 2) % 2].store_block(
            address, block.tobytes(), approximable=True, count_traffic=False
        )
    l2 = SetAssociativeCache(2 * 2 * 128, line_bytes=128, ways=2)  # 2 sets, 2 ways
    return regions, region_blocks, base_addresses, l2, controllers


def _controller_state(controller: MemoryController):
    return (
        vars(controller.stats).copy(),
        _mdc_state(controller.mdc),
        _dram_state(controller.channel),
        {a: (s.bursts, s.stored_bits, s.data, s.lossy) for a, s in controller.stored_items()},
    )


def _run_both(trace: MemoryTrace, backend_kind: str, seed: int, mdc_entries: int):
    results = []
    for engine in (replay_trace_scalar, replay_trace):
        regions, blocks, bases, l2, controllers = _make_state(
            seed, backend_kind, mdc_entries
        )
        engine(
            trace,
            all_regions=regions,
            region_blocks=blocks,
            base_addresses=bases,
            l2=l2,
            controllers=controllers,
            interleave_blocks=2,
        )
        state = (
            _cache_state(l2),
            [_controller_state(c) for c in controllers],
        )
        if backend_kind == "slc":
            state += (
                controllers[0].backend.total_blocks,
                controllers[0].backend.lossy_blocks,
                controllers[0].backend.total_overshoot_bits,
            )
        results.append(state)
    scalar_state, vector_state = results
    assert vector_state == scalar_state


trace_entries = st.lists(
    st.tuples(
        st.sampled_from(["inp", "out"]),
        st.integers(min_value=0, max_value=2),
        st.booleans(),
        st.integers(min_value=1, max_value=3),
    ),
    max_size=40,
)


@given(entries=trace_entries, backend_kind=st.sampled_from(["none", "slc"]))
@settings(max_examples=40, deadline=None)
def test_engine_property_random_traces(entries, backend_kind):
    trace = MemoryTrace()
    for region, block, write, count in entries:
        trace.append(
            MemoryAccess(
                region=region,
                block_index=block,
                access_type=AccessType.WRITE if write else AccessType.READ,
                count=count,
            )
        )
    # mdc_entries=4 forces the exact slow path + LRU evictions in the MDC
    _run_both(trace, backend_kind, seed=11, mdc_entries=4)


def test_engine_streamed_trace_matches_scalar():
    trace = MemoryTrace()
    trace.add_stream("inp", 3, AccessType.READ, passes=2)
    trace.add_stream("out", 2, AccessType.WRITE)
    trace.add_stream("inp", 3, AccessType.READ, stride=2)
    _run_both(trace, "slc", seed=3, mdc_entries=8192)


def test_engine_empty_trace_is_a_no_op():
    _run_both(MemoryTrace(), "none", seed=5, mdc_entries=8)


# --------------------------------------------------------------------- #
# whole-simulation equivalence over the paper grid


def _paired_results(job: Job):
    scalar = simulate_job(job, reference=True)
    vector = simulate_job(job)
    return scalar.to_dict(), vector.to_dict()


@pytest.mark.parametrize("workload", PAPER_WORKLOAD_ORDER)
@pytest.mark.parametrize("mag", [16, 32, 64])
@pytest.mark.parametrize("scheme", ["E2MC", "TSLC-OPT"])
def test_simulation_equivalence_grid(workload, mag, scheme):
    job = Job(
        workload=workload,
        scheme=scheme,
        scale=SCALE,
        seed=2019,
        mag_bytes=mag,
        lossy_threshold_bytes=max(1, mag // 2),
        compute_error=False,
    )
    scalar, vector = _paired_results(job)
    assert vector == scalar


@pytest.mark.parametrize("scheme", ["TSLC-SIMP", "TSLC-PRED"])
def test_simulation_equivalence_other_variants(scheme):
    job = Job(workload="FWT", scheme=scheme, scale=SCALE, seed=2019, compute_error=False)
    scalar, vector = _paired_results(job)
    assert vector == scalar


@pytest.mark.parametrize("workload", ["NN", "TP"])
def test_simulation_equivalence_with_error(workload):
    """Degraded inputs (and therefore the application error) match too."""
    job = Job(workload=workload, scheme="TSLC-OPT", scale=SCALE, seed=2019)
    scalar, vector = _paired_results(job)
    assert vector == scalar
    assert vector["error_percent"] == scalar["error_percent"]
