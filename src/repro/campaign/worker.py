"""Job execution: the function a campaign worker process runs.

Kept in its own module so :func:`execute_job` is importable at top level —
a requirement for ``ProcessPoolExecutor`` under the ``spawn`` start method —
and so the campaign package depends only on the core/gpu/workload layers
(the study harness builds on the campaign engine, not the other way
around).

A process keeps the :class:`~repro.gpu.simulator.PreparedWorkload` of the
last job it ran, keyed by the registered workload factory, scale, seed and
block size, so consecutive cells of one workload (the schemes, MAGs and
thresholds of a sweep) generate its inputs, run its exact kernel and build
its trace once.  The executor orders jobs so that those cells are
consecutive.  The entry is per thread: thread workers of one process (the
distributed loopback) never fill one entry at once.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
from datetime import datetime, timezone

from repro.campaign.spec import (
    BASELINE_SCHEME,
    KNOWN_SCHEMES,
    LOSSLESS_SCHEMES,
    SCHEME_VARIANTS,
    Job,
    overrides_to_config,
)
from repro.obs import metrics, tracing
from repro.compression.e2mc import E2MCCompressor
from repro.compression.registry import get_compressor
from repro.core.config import SLCConfig
from repro.core.slc import SLCCompressor
from repro.gpu.backends import CompressionBackend, LosslessBackend, SLCBackend
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import GPUSimulator, PreparedWorkload, SimulationResult
from repro.workloads.registry import workload_factory

#: ``prepared``: ``(key, entry)`` of this thread's one prepared workload
_cache = threading.local()


def build_backend(
    scheme: str,
    config: GPUConfig,
    lossy_threshold_bytes: int = 16,
    mag_bytes: int | None = None,
) -> CompressionBackend:
    """Build the memory-controller backend for a scheme label.

    ``"E2MC"`` yields the lossless baseline (46/20-cycle latencies from the
    GPU latency config); the other lossless labels (``"BDI"``, ``"FPC"``,
    ``"CPACK"``, ``"BPC"``) come from the compression registry with the
    registry's per-scheme latencies; the TSLC labels yield an SLC backend of
    the matching variant (60/20 cycles).
    """
    mag = mag_bytes if mag_bytes is not None else config.mag_bytes
    latency = config.latency
    if scheme == BASELINE_SCHEME:
        compressor = E2MCCompressor(
            block_size_bytes=config.block_size_bytes,
            symbol_bytes=2,
            num_pdw=4,
        )
        return LosslessBackend(
            compressor,
            mag_bytes=mag,
            compress_cycles=latency.e2mc_compress_cycles,
            decompress_cycles=latency.e2mc_decompress_cycles,
        )
    if scheme in LOSSLESS_SCHEMES:
        compressor = get_compressor(
            scheme, block_size_bytes=config.block_size_bytes
        )
        # latencies resolve from the registry inside LosslessBackend
        return LosslessBackend(compressor, mag_bytes=mag)
    if scheme not in SCHEME_VARIANTS:
        raise KeyError(
            f"unknown scheme {scheme!r}; available: {', '.join(KNOWN_SCHEMES)}"
        )
    slc_config = SLCConfig(
        block_size_bytes=config.block_size_bytes,
        mag_bytes=mag,
        lossy_threshold_bytes=lossy_threshold_bytes,
        variant=SCHEME_VARIANTS[scheme],
    )
    return SLCBackend(
        SLCCompressor(slc_config),
        compress_cycles=latency.tslc_compress_cycles,
        decompress_cycles=latency.tslc_decompress_cycles,
    )


def simulate_job(
    job: Job,
    reference: bool = False,
    payload_digest: bool = False,
) -> SimulationResult:
    """Run one job to completion and return its simulation result.

    The job's workload comes from this thread's prepared-workload cache
    (see the module docstring); :func:`clear_prepared` makes the next job
    run cold.  Results are identical either way.

    Args:
        job: the campaign job description.
        reference: run the all-scalar reference oracle (per-block stores,
            per-access replay) instead of the production pipeline; results
            are identical (see :class:`GPUSimulator`).  The equivalence
            tests and the end-to-end benchmarks' baselines set it.
        payload_digest: record ``extra_metrics["payload_sha256"]`` over the
            final stored state (see :class:`GPUSimulator`); used by the
            golden-result regression suite.
    """
    config = overrides_to_config(job.config_overrides)
    simulator = GPUSimulator(
        config=config,
        reference=reference,
        payload_digest=payload_digest,
    )
    workload = _prepared_workload(job, config.block_size_bytes)
    backend = build_backend(
        job.scheme,
        config,
        lossy_threshold_bytes=job.lossy_threshold_bytes,
        mag_bytes=job.mag_bytes,
    )
    try:
        return simulator.run(workload, backend, compute_error=job.compute_error)
    except BaseException:
        # The cell may have failed mid-generation, leaving a workload whose
        # RNG has moved on: the next cell must start from a fresh one.
        clear_prepared()
        raise


def _prepared_workload(job: Job, block_size: int) -> PreparedWorkload:
    """This thread's prepared workload for ``job``, empty on a miss.

    The key is ``(registered factory, scale, seed, block size)``: the
    factory object, not the name, so a workload re-registered under the
    same name is a miss.  An empty entry is filled by the job's
    :meth:`GPUSimulator.run`.  On a miss the old entry is dropped before
    the new workload is built, so two workloads' data never coexist.
    """
    factory = workload_factory(job.workload)
    key = (factory, job.scale, job.seed, block_size)
    entry = getattr(_cache, "prepared", None)
    if entry is None or entry[0] != key:
        _cache.prepared = None
        kwargs: dict = {"seed": job.seed}
        if job.scale is not None:
            kwargs["scale"] = job.scale
        entry = _cache.prepared = (
            key, PreparedWorkload(factory(**kwargs), block_size))
    return entry[1]


def clear_prepared() -> None:
    """Drop this thread's prepared workload: its next job runs cold."""
    _cache.prepared = None


def execute_job(job_dict: dict) -> dict:
    """Worker entry point: run one job, never raise.

    Takes and returns plain dicts so the payload crossing the process
    boundary is cheap to pickle and identical to what the store persists.
    Failures are captured as an ``"error"`` record with the traceback, so
    one bad job never kills a sweep.

    Every record carries provenance (hostname, pid, ISO-8601 start time).
    When observability is enabled (see :mod:`repro.obs`), the job runs
    under a root span and the payload additionally carries the spans and
    the per-job metrics snapshot, which the executor merges back into the
    parent process.
    """
    job = Job.from_dict(job_dict)
    provenance = {
        "hostname": socket.gethostname(),
        "pid": os.getpid(),
        "started_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    metrics_on = metrics.enabled()
    if metrics_on:
        # Pool workers are long-lived: isolate this job's snapshot from the
        # previous job's (and, in-process, from campaign-level counters).
        metrics.clear()
    tracking_memory = metrics.start_tracemalloc()
    span_mark = tracing.mark()
    start = time.perf_counter()
    try:
        with tracing.span(f"job:{job.label()}", cat="job",
                          workload=job.workload, scheme=job.scheme):
            result = simulate_job(job)
        status, result_dict, error = "ok", result.to_dict(), None
    except Exception:
        status, result_dict, error = "error", None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    if tracking_memory:
        metrics.stop_tracemalloc()
    payload = {
        "job_hash": job.content_hash,
        "job": job.to_dict(),
        "status": status,
        "result": result_dict,
        "error": error,
        "elapsed_s": elapsed,
        "provenance": provenance,
    }
    if metrics_on:
        metrics.observe("job.elapsed_s", elapsed)
        payload["metrics"] = metrics.snapshot()
        metrics.clear()
    if tracing.enabled():
        payload["spans"] = tracing.drain(span_mark)
    return payload
