"""BENCH-C — batched payload codec vs. the per-symbol scalar path.

Measures bit-level payload materialization — Huffman compress + decompress of
every block of each paper workload's regions — comparing the vectorized codec
(:mod:`repro.kernels.codec` via ``compress_batch``/``decompress_batch``)
against the per-symbol ``BitWriter``/``BitReader`` loops it replaces, plus
a TSLC-OPT campaign job end to end against the all-scalar reference oracle.  Full mode (the default) sweeps all nine workloads and asserts
the ≥5× codec / ≥1.5× job floors; ``--codec-quick`` is the CI smoke mode
(three workloads, relaxed floors) so the codec path is exercised on every
push.
"""

from __future__ import annotations

import time

import numpy as np

from repro.campaign.spec import Job
from repro.campaign.worker import simulate_job
from repro.compression.e2mc import E2MCCompressor
from repro.compression.stats import geometric_mean
from repro.core.config import SLCConfig, SLCVariant
from repro.core.slc import SLCCompressor
from repro.utils.blocks import array_to_blocks
from repro.utils.sampling import sample_evenly
from repro.workloads.registry import PAPER_WORKLOAD_ORDER, get_workload

QUICK_WORKLOADS = ("NN", "FWT", "DCT")
#: acceptance target for the full 9-workload sweep slice
FULL_CODEC_FLOOR = 5.0
#: relaxed floor for the CI smoke run (shared runners are noisy)
QUICK_CODEC_FLOOR = 2.0
#: fused multi-symbol decode vs. the searchsorted lockstep oracle; the
#: trajectory gate (BENCH_0008) owns the headline ≥3x number — these floors
#: only catch a fused path that stopped helping at all
FULL_DECODE_FLOOR = 2.0
QUICK_DECODE_FLOOR = 1.2
#: decode-benchmark batch size: the fused decoder's advantage is steady from
#: a few thousand rows up, and 8192 rows keep one measurement under ~100 ms
DECODE_ROWS = 8192
QUICK_DECODE_ROWS = 2048
#: end-to-end TSLC-OPT job floors (codec is one phase of a job); quick mode
#: allows 10% regression headroom for noisy shared runners, matching the
#: replay benchmark's smoke-mode convention
FULL_JOB_FLOOR = 1.5
QUICK_JOB_FLOOR = 0.9
#: per-workload block cap: the scalar path is ~1 ms/block, so the full
#: sweep stays a few seconds while the geometric mean stays representative
MAX_BLOCKS = 384


def _workload_blocks(name: str, scale: float) -> list[bytes]:
    workload = get_workload(name, scale=scale, seed=2019)
    blocks = [
        block
        for region in workload.generate().values()
        for block in array_to_blocks(region.array)
    ]
    return sample_evenly(blocks, MAX_BLOCKS)


def _time(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_codec_roundtrip_speedup(benchmark, slc_scale, codec_quick,
                                       bench_record):
    """compress_batch + decompress_batch vs. the per-block scalar codec."""
    names = QUICK_WORKLOADS if codec_quick else PAPER_WORKLOAD_ORDER
    floor = QUICK_CODEC_FLOOR if codec_quick else FULL_CODEC_FLOOR
    config = SLCConfig(variant=SLCVariant.OPT)

    speedups: dict[str, float] = {}
    rows = []
    for name in names:
        blocks = _workload_blocks(name, slc_scale)
        slc = SLCCompressor(config)
        slc.train(sample_evenly(blocks, 1024))

        def scalar() -> None:
            compressed = [slc.compress(block) for block in blocks]
            for block in compressed:
                slc.decompress(block)

        def batch() -> None:
            slc.decompress_batch(slc.compress_batch(blocks))

        scalar_s = _time(scalar)
        batch_s = _time(batch)
        speedups[name] = scalar_s / batch_s
        rows.append(
            f"{name:<8} {len(blocks):>4} blocks  scalar {scalar_s * 1e3:8.2f} ms  "
            f"batch {batch_s * 1e3:8.2f} ms  speedup {speedups[name]:6.1f}x"
        )

    gm = geometric_mean(list(speedups.values()))
    print()
    print("BENCH-C — batched payload codec vs. per-symbol scalar path")
    for row in rows:
        print(row)
    print(f"{'GM':<8} {'':>12}  speedup {gm:6.1f}x  (floor {floor:.0f}x)")
    bench_record(f"codec_gm_speedup{'_quick' if codec_quick else ''}", gm)

    # time the batch codec once more under pytest-benchmark for the report
    blocks = _workload_blocks(names[0], slc_scale)
    slc = SLCCompressor(config)
    slc.train(sample_evenly(blocks, 1024))
    benchmark.pedantic(
        lambda: slc.decompress_batch(slc.compress_batch(blocks)),
        rounds=3,
        iterations=1,
    )

    assert gm >= floor, f"batched codec only {gm:.1f}x over scalar (floor {floor}x)"


def _decode_dataset(name: str, scale: float, n_rows: int):
    """Production-shaped decode inputs: train E2MC on a workload's blocks,
    compress them, and keep the compressible payloads (replicated up to
    ``n_rows`` so the batch is large enough for steady-state timing)."""
    blocks = _workload_blocks(name, scale)
    compressor = E2MCCompressor()
    compressor.train(sample_evenly(blocks, 1024))
    payloads: list[bytes] = []
    bits: list[int] = []
    for compressed in compressor.compress_batch(blocks):
        if compressed.is_compressed:
            data, payload_bits = compressed.payload
            payloads.append(data)
            bits.append(payload_bits)
    if not payloads:
        return None
    reps = -(-n_rows // len(payloads))
    payloads = (payloads * reps)[:n_rows]
    bits = (bits * reps)[:n_rows]
    lut = compressor.model.codec_table()
    bit_lengths = np.asarray(bits, dtype=np.int64)
    counts = np.full(len(payloads), compressor.symbols_per_block, dtype=np.int64)
    return lut, payloads, bit_lengths, counts


def test_bench_codec_decode_speedup(slc_scale, codec_quick, bench_record):
    """Fused multi-symbol Huffman decode vs. the searchsorted lockstep oracle.

    Decode is the payload codec's hot half (every read miss decompresses);
    the fused k-bit tables replace one searchsorted round per symbol slot
    with a handful of gathers per row.  Timed interleaved (oracle/fused
    alternating) so drift on shared runners hits both sides equally.
    """
    names = QUICK_WORKLOADS if codec_quick else PAPER_WORKLOAD_ORDER
    floor = QUICK_DECODE_FLOOR if codec_quick else FULL_DECODE_FLOOR
    n_rows = QUICK_DECODE_ROWS if codec_quick else DECODE_ROWS
    repeats = 3 if codec_quick else 5

    speedups: dict[str, float] = {}
    rows = []
    for name in names:
        dataset = _decode_dataset(name, slc_scale, n_rows)
        if dataset is None:  # pragma: no cover - every paper workload compresses
            continue
        lut, payloads, bit_lengths, counts = dataset
        fused = lut.decode_rows(payloads, bit_lengths, counts)
        oracle = lut.decode_rows_lockstep(payloads, bit_lengths, counts)
        assert np.array_equal(fused, oracle)

        best_fused = best_oracle = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            lut.decode_rows_lockstep(payloads, bit_lengths, counts)
            best_oracle = min(best_oracle, time.perf_counter() - start)
            start = time.perf_counter()
            lut.decode_rows(payloads, bit_lengths, counts)
            best_fused = min(best_fused, time.perf_counter() - start)
        speedups[name] = best_oracle / best_fused
        rows.append(
            f"{name:<8} {len(payloads):>5} rows  oracle {best_oracle * 1e3:8.2f} ms"
            f"  fused {best_fused * 1e3:8.2f} ms  speedup {speedups[name]:5.2f}x"
        )

    gm = geometric_mean(list(speedups.values()))
    print()
    print("BENCH-C — fused multi-symbol decode vs. searchsorted oracle")
    for row in rows:
        print(row)
    print(f"{'GM':<8} {'':>12}   speedup {gm:5.2f}x  (floor {floor:.1f}x)")
    bench_record(f"decode_gm_speedup{'_quick' if codec_quick else ''}", gm)
    assert gm >= floor, (
        f"fused decode only {gm:.2f}x over the searchsorted oracle "
        f"(floor {floor}x)"
    )


def test_bench_codec_end_to_end_job(slc_scale, codec_quick, bench_record):
    """The production pipeline must speed up a full TSLC-OPT job.

    The payload codec runs in every store (host-to-device copies and write
    misses), so it dominates the reference oracle's TSLC job time; the
    production pipeline must clear the floor end to end.
    """
    floor = QUICK_JOB_FLOOR if codec_quick else FULL_JOB_FLOOR
    job = Job(
        workload="NN",
        scheme="TSLC-OPT",
        scale=slc_scale,
        seed=2019,
        compute_error=False,
    )
    batch_s = _time(lambda: simulate_job(job), repeats=2)
    scalar_s = _time(lambda: simulate_job(job, reference=True), repeats=2)
    speedup = scalar_s / batch_s
    print(
        f"\nend-to-end NN/TSLC-OPT job: reference {scalar_s * 1e3:.1f} ms, "
        f"production {batch_s * 1e3:.1f} ms ({speedup:.2f}x, floor {floor:.1f}x)"
    )
    # Absolute seconds are machine-dependent: trajectory context, not a gate.
    bench_record(
        "job_nn_tslc_opt_s", batch_s, unit="s", higher_is_better=False, gate=False,
    )
    assert speedup >= floor, (
        f"production job only {speedup:.2f}x over the reference oracle "
        f"(floor {floor}x)"
    )
