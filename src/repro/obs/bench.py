"""Direct perf measurements behind ``repro bench snapshot --measure``.

The benchmark suite under ``benchmarks/`` is the authoritative harness (it
asserts speedup floors and feeds the gate via ``--bench-record``), but it
only runs under pytest.  This module measures the same three batched-vs-
scalar geometric-mean speedups — analysis kernels, trace replay, payload
codec — plus two end-to-end job times with the same methodology
(best-of-N wall time over identical inputs), so a snapshot can be taken
with nothing but the installed package::

    repro bench snapshot --measure --quick

Quick mode mirrors the CI smoke benchmarks (three workloads, benchmark
scale); full mode mirrors the full suite (all nine paper workloads,
trace-heavy scale for replay).  Quick and full numbers are *not*
comparable to each other, so metric names carry a ``_quick`` suffix in
quick mode and the gate only compares like with like.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.campaign.spec import Job
from repro.campaign.worker import build_backend, clear_prepared, simulate_job
from repro.compression.e2mc import E2MCCompressor
from repro.compression.stats import geometric_mean
from repro.core.config import SLCConfig, SLCVariant
from repro.core.slc import SLCCompressor
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig
from repro.gpu.memory_controller import MemoryController
from repro.gpu.simulator import GPUSimulator
from repro.obs import trajectory
from repro.replay import replay_trace, replay_trace_scalar
from repro.utils.blocks import array_to_blocks, block_matrix
from repro.utils.sampling import sample_evenly
from repro.workloads.registry import PAPER_WORKLOAD_ORDER, get_workload

__all__ = [
    "QUICK_WORKLOADS",
    "measure_kernels_gm",
    "measure_codec_gm",
    "measure_decode_gm",
    "measure_replay_gm",
    "measure_job_seconds",
    "collect_metrics",
]

#: the CI smoke subset (matches the benchmark suite's quick mode)
QUICK_WORKLOADS = ("NN", "FWT", "DCT")
#: benchmark-default input scale for kernels/codec (and quick replay)
BENCH_SCALE = 1.0 / 512.0
#: trace-heavy scale for the full replay sweep
REPLAY_FULL_SCALE = 1.0 / 64.0
#: per-workload block cap for the codec measurement (scalar path ~1 ms/block)
CODEC_MAX_BLOCKS = 384
#: decode-measurement batch sizes (matches the benchmark suite)
DECODE_ROWS = 8192
QUICK_DECODE_ROWS = 2048


def _time_best(fn: Callable[[], object], repeats: int = 2) -> float:
    """Best of ``repeats`` calls, each with an empty prepared-workload cache
    (a timed job is one cold job, as in a fresh process)."""
    best = float("inf")
    for _ in range(repeats):
        clear_prepared()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _workload_blocks(name: str, scale: float, cap: int | None = None) -> list[bytes]:
    workload = get_workload(name, scale=scale, seed=2019)
    blocks = [
        block
        for region in workload.generate().values()
        for block in array_to_blocks(region.array)
    ]
    return sample_evenly(blocks, cap) if cap else blocks


def measure_kernels_gm(
    workloads: tuple[str, ...], scale: float = BENCH_SCALE
) -> float:
    """GM speedup of ``analyze_batch`` over the per-block scalar analyze."""
    config = SLCConfig(variant=SLCVariant.OPT)
    speedups = []
    for name in workloads:
        blocks = _workload_blocks(name, scale)
        slc = SLCCompressor(config)
        slc.train(sample_evenly(blocks, 1024))
        scalar_s = _time_best(lambda: [slc.analyze(block) for block in blocks])
        batch_s = _time_best(lambda: slc.analyze_batch(blocks))
        speedups.append(scalar_s / batch_s)
    return geometric_mean(speedups)


def measure_codec_gm(
    workloads: tuple[str, ...], scale: float = BENCH_SCALE
) -> float:
    """GM speedup of the batched payload codec roundtrip over the scalar one."""
    config = SLCConfig(variant=SLCVariant.OPT)
    speedups = []
    for name in workloads:
        blocks = _workload_blocks(name, scale, cap=CODEC_MAX_BLOCKS)
        slc = SLCCompressor(config)
        slc.train(sample_evenly(blocks, 1024))

        def scalar() -> None:
            for compressed in [slc.compress(block) for block in blocks]:
                slc.decompress(compressed)

        scalar_s = _time_best(scalar)
        batch_s = _time_best(lambda: slc.decompress_batch(slc.compress_batch(blocks)))
        speedups.append(scalar_s / batch_s)
    return geometric_mean(speedups)


def measure_decode_gm(
    workloads: tuple[str, ...],
    scale: float = BENCH_SCALE,
    n_rows: int = QUICK_DECODE_ROWS,
) -> float:
    """GM speedup of the fused multi-symbol decode over the lockstep oracle."""
    import numpy as np

    speedups = []
    for name in workloads:
        blocks = _workload_blocks(name, scale, cap=CODEC_MAX_BLOCKS)
        compressor = E2MCCompressor()
        compressor.train(sample_evenly(blocks, 1024))
        payloads: list[bytes] = []
        bits: list[int] = []
        for compressed in compressor.compress_batch(blocks):
            if compressed.is_compressed:
                data, payload_bits = compressed.payload
                payloads.append(data)
                bits.append(payload_bits)
        if not payloads:  # pragma: no cover - every paper workload compresses
            continue
        reps = -(-n_rows // len(payloads))
        payloads = (payloads * reps)[:n_rows]
        bit_lengths = np.asarray((bits * reps)[:n_rows], dtype=np.int64)
        counts = np.full(
            len(payloads), compressor.symbols_per_block, dtype=np.int64
        )
        lut = compressor.model.codec_table()
        oracle_s = _time_best(
            lambda: lut.decode_rows_lockstep(payloads, bit_lengths, counts)
        )
        fused_s = _time_best(lambda: lut.decode_rows(payloads, bit_lengths, counts))
        speedups.append(oracle_s / fused_s)
    return geometric_mean(speedups)


class _ReplaySetup:
    """One workload's replay inputs with rebuildable mutable state.

    The expensive one-time stages (data generation, kernel execution,
    training, trace construction) run once; :meth:`fresh_state` rebuilds
    the L2 and controllers (with the host-to-device copy applied) so each
    timed replay starts from an identical machine state.
    """

    def __init__(self, name: str, scale: float, scheme: str = "E2MC") -> None:
        self.config = GPUConfig()
        workload = get_workload(name, scale=scale, seed=2019)
        self.backend = build_backend(scheme, self.config)
        simulator = GPUSimulator(config=self.config)
        self.input_regions = workload.generate()
        exact = workload.run(workload.input_arrays(self.input_regions))
        self.all_regions = dict(self.input_regions)
        self.all_regions.update(workload.output_regions(exact))
        self.region_blocks = {
            region_name: block_matrix(region.array, self.config.block_size_bytes)
            for region_name, region in self.all_regions.items()
        }
        self.base_addresses = simulator._layout(self.all_regions, self.region_blocks)
        simulator._train_backend(self.backend, self.input_regions, self.region_blocks)
        self.trace = workload.trace(
            self.all_regions, block_size_bytes=self.config.block_size_bytes
        )
        self.interleave = simulator.CHANNEL_INTERLEAVE_BLOCKS
        self.simulator = simulator

    def fresh_state(self) -> tuple[SetAssociativeCache, list[MemoryController]]:
        config = self.config
        controllers = [
            MemoryController(
                controller_id=i,
                backend=self.backend,
                mag_bytes=config.mag_bytes,
                block_size_bytes=config.block_size_bytes,
            )
            for i in range(config.num_memory_controllers)
        ]
        self.simulator._store_inputs(
            self.backend, controllers, self.input_regions, self.region_blocks,
            self.base_addresses,
        )
        l2 = SetAssociativeCache(
            size_bytes=config.l2_cache_kb * 1024,
            line_bytes=config.l2_line_bytes,
            ways=config.l2_ways,
        )
        return l2, controllers

    def time_replay(self, engine, repeats: int = 2) -> float:
        best = float("inf")
        for _ in range(repeats):
            l2, controllers = self.fresh_state()
            start = time.perf_counter()
            engine(
                self.trace,
                all_regions=self.all_regions,
                region_blocks=self.region_blocks,
                base_addresses=self.base_addresses,
                l2=l2,
                controllers=controllers,
                interleave_blocks=self.interleave,
            )
            best = min(best, time.perf_counter() - start)
        return best


def measure_replay_gm(workloads: tuple[str, ...], scale: float) -> float:
    """GM speedup of the vectorized replay engine over the scalar loop."""
    speedups = []
    for name in workloads:
        setup = _ReplaySetup(name, scale)
        scalar_s = setup.time_replay(replay_trace_scalar)
        vector_s = setup.time_replay(replay_trace)
        speedups.append(scalar_s / vector_s)
    return geometric_mean(speedups)


def measure_job_seconds(scale: float = BENCH_SCALE) -> dict[str, float]:
    """End-to-end wall time of two representative campaign jobs."""
    jobs = {
        "job_nn_tslc_opt_s": Job(
            workload="NN", scheme="TSLC-OPT", scale=scale, seed=2019,
            compute_error=False,
        ),
        "job_tp_e2mc_s": Job(
            workload="TP", scheme="E2MC", scale=scale, seed=2019,
            compute_error=False,
        ),
    }
    return {
        name: _time_best(lambda job=job: simulate_job(job))
        for name, job in jobs.items()
    }


def collect_metrics(quick: bool = True, progress=None) -> dict[str, dict]:
    """Measure the full metric set for a snapshot (``repro bench snapshot``).

    Quick mode takes ~10 s and matches the CI smoke benchmarks; full mode
    matches the full benchmark suite (minutes).  ``progress`` is called
    with a status string before each measurement family.
    """
    suffix = "_quick" if quick else ""
    workloads = QUICK_WORKLOADS if quick else PAPER_WORKLOAD_ORDER
    replay_scale = BENCH_SCALE if quick else REPLAY_FULL_SCALE
    say = progress or (lambda message: None)

    metrics: dict[str, dict] = {}
    say("measuring analysis kernels (batched vs. scalar)")
    metrics[f"kernels_gm_speedup{suffix}"] = trajectory.metric(
        measure_kernels_gm(workloads), unit="x"
    )
    say("measuring trace replay (vectorized vs. scalar)")
    metrics[f"replay_gm_speedup{suffix}"] = trajectory.metric(
        measure_replay_gm(workloads, replay_scale), unit="x"
    )
    say("measuring payload codec (batched vs. scalar)")
    metrics[f"codec_gm_speedup{suffix}"] = trajectory.metric(
        measure_codec_gm(workloads), unit="x"
    )
    say("measuring fused decode (vs. searchsorted oracle)")
    metrics[f"decode_gm_speedup{suffix}"] = trajectory.metric(
        measure_decode_gm(
            workloads, n_rows=QUICK_DECODE_ROWS if quick else DECODE_ROWS
        ),
        unit="x",
    )
    say("measuring end-to-end job times")
    for name, seconds in measure_job_seconds().items():
        metrics[name] = trajectory.metric(
            seconds, unit="s", higher_is_better=False, gate=False
        )
    return metrics
