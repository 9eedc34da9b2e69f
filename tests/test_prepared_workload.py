"""The prepared-workload cache: warm cells equal cold cells.

A :class:`~repro.gpu.simulator.PreparedWorkload` holds everything of a
simulation that does not depend on the scheme (inputs, exact outputs, block
matrices, layout, trace).  ``simulate_job`` keeps one per process, so the
cells of a sweep share it.  These tests pin that sharing changes no result,
that the cache keys on what the data depends on, that it holds one entry,
and that shared arrays cannot be written.
"""

from __future__ import annotations

import gc
import sys
import threading
from collections import Counter
from dataclasses import replace

import pytest

from repro.campaign import CampaignSpec, Job, run_campaign
from repro.campaign.worker import build_backend, clear_prepared, simulate_job
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import GPUSimulator, PreparedWorkload
from repro.workloads.blackscholes import BlackScholesWorkload
from repro.workloads.nn import NearestNeighborWorkload
from repro.workloads.registry import get_workload, unregister_workload
from repro.workloads.traceio import capture_trace, register_trace, save_trace
from tests.test_pipeline_invariants import backend_factory  # noqa: F401

CONFIG = GPUConfig()
SCALE = 1.0 / 2048.0
SEED = 2019
WORKLOADS = ("NN", "BS")


@pytest.fixture(autouse=True)
def cold_cache():
    clear_prepared()
    yield
    clear_prepared()


@pytest.fixture
def generate_calls(monkeypatch) -> Counter:
    """Counts ``generate()`` calls of the NN and BS workloads, by name."""
    calls: Counter = Counter()
    for cls in (NearestNeighborWorkload, BlackScholesWorkload):

        def counted(self, _original=cls.generate):
            calls[self.name] += 1
            return _original(self)

        monkeypatch.setattr(cls, "generate", counted)
    return calls


@pytest.fixture(scope="module", params=WORKLOADS)
def shared(request) -> PreparedWorkload:
    """One prepared workload per workload for the whole module, already used
    by a lossy cell with the error pass on."""
    simulator = GPUSimulator(CONFIG)
    prepared = simulator.prepare(get_workload(request.param, scale=SCALE, seed=SEED))
    simulator.run(prepared, build_backend("TSLC-OPT", CONFIG), compute_error=True)
    return prepared


@pytest.mark.parametrize("reference", [False, True], ids=["production", "reference"])
def test_warm_run_equals_cold_run(backend_factory, shared, reference):  # noqa: F811
    simulator = GPUSimulator(CONFIG, reference=reference, payload_digest=True)
    workload = get_workload(shared.workload.name, scale=SCALE, seed=SEED)
    cold = simulator.run(workload, backend_factory(CONFIG), compute_error=True)
    warm = simulator.run(shared, backend_factory(CONFIG), compute_error=True)
    assert "payload_sha256" in warm.extra_metrics
    assert warm.to_dict() == cold.to_dict()


def _live_entries(scale: float) -> list[PreparedWorkload]:
    gc.collect()
    return [
        entry for entry in gc.get_objects()
        if isinstance(entry, PreparedWorkload) and entry.generated
        and entry.workload.scale == scale
    ]


def test_sweep_keeps_one_entry(monkeypatch):
    scale = SCALE / 2  # no module fixture holds an entry at this scale
    alive_at_generate = []
    original = GPUSimulator._generate

    def generate(self, prepared):
        alive_at_generate.append(len(_live_entries(scale)))
        original(self, prepared)

    monkeypatch.setattr(GPUSimulator, "_generate", generate)
    spec = CampaignSpec(workloads=("NN", "BS", "TP"), schemes=("E2MC", "TSLC-OPT"),
                        scales=(scale,), compute_error=True)
    outcome = run_campaign(spec)
    assert outcome.n_failed == 0
    # the previous workload's entry is gone before the next one is generated
    assert alive_at_generate == [0, 0, 0]
    (entry,) = _live_entries(scale)
    assert entry.workload.name == "TP"


def test_seed_scale_and_block_size_are_misses(generate_calls):
    def job(**changes) -> Job:
        cell = dict(workload="NN", scheme="TSLC-OPT", scale=SCALE, seed=SEED)
        return Job(**{**cell, **changes})

    cells = [
        (job(scheme="E2MC"), 1),
        (job(), 0),
        (job(seed=SEED + 1), 1),
        (job(scale=SCALE / 2), 1),
        (job(config_overrides=(("l2_line_bytes", 64),)), 1),
    ]
    for cell, generated in cells:
        before = generate_calls["NN"]
        warm = simulate_job(cell, payload_digest=True)
        assert generate_calls["NN"] - before == generated, cell
        clear_prepared()
        assert warm.to_dict() == simulate_job(cell, payload_digest=True).to_dict()


def test_reregistered_trace_is_a_miss(tmp_path):
    paths = [
        save_trace(tmp_path / name,
                   capture_trace(get_workload(name, scale=SCALE, seed=SEED)))
        for name in WORKLOADS
    ]
    job = Job(workload="CACHED", scheme="E2MC", scale=SCALE, seed=SEED)
    results = []
    for path in paths:
        register_trace(path, name="CACHED")
        try:
            # the entry left from the previous bundle is keyed on its factory
            warm = simulate_job(job).to_dict()
            clear_prepared()
            cold = simulate_job(job).to_dict()
        finally:
            unregister_workload("CACHED")
        assert warm == cold
        results.append(warm)
    assert results[0] != results[1]


def test_failed_cell_drops_its_entry(monkeypatch):
    job = Job(workload="NN", scheme="E2MC", scale=SCALE, seed=SEED)
    cold = simulate_job(job).to_dict()
    clear_prepared()

    def failing_kernel(self, arrays):
        raise RuntimeError("kernel failed")

    with monkeypatch.context() as patch:
        patch.setattr(NearestNeighborWorkload, "run", failing_kernel)
        with pytest.raises(RuntimeError, match="kernel failed"):
            simulate_job(job)
    # generate() ran before the kernel failed; a retry on the same workload
    # object would draw different inputs
    assert simulate_job(job).to_dict() == cold


def test_prepared_arrays_are_read_only():
    simulator = GPUSimulator(CONFIG)
    prepared = simulator.prepare(get_workload("NN", scale=SCALE, seed=SEED))
    simulator.run(prepared, build_backend("TSLC-OPT", CONFIG), compute_error=True)
    arrays = [
        *(region.array for region in prepared.all_regions.values()),
        *prepared.region_blocks.values(),
        *prepared.exact_outputs.arrays.values(),
        *(segment.block_indices for segment in prepared.trace._segments),
    ]
    assert len(arrays) > len(prepared.all_regions)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_prepared_for_other_block_size_is_rejected():
    prepared = GPUSimulator(CONFIG).prepare(get_workload("NN", scale=SCALE, seed=SEED))
    small = GPUSimulator(replace(CONFIG, l2_line_bytes=64))
    with pytest.raises(ValueError, match="prepared for 128 B blocks"):
        small.run(prepared, build_backend("E2MC", small.config))


def test_mag_sweep_generates_each_workload_once(generate_calls):
    spec = CampaignSpec(workloads=WORKLOADS, schemes=("E2MC", "TSLC-OPT"),
                        mags=(16, 32), scales=(SCALE,), compute_error=True)
    outcome = run_campaign(spec)
    assert generate_calls == {"NN": 1, "BS": 1}
    # records still come back in grid order
    assert [job for job, _ in outcome.iter_records()] == spec.expand()
    warm = {job.content_hash: record.result.to_dict()
            for job, record in outcome.iter_records()}
    cold = {}
    for job in spec.expand():
        clear_prepared()
        cold[job.content_hash] = simulate_job(job).to_dict()
    assert warm == cold


def test_thread_workers_share_the_cache_safely():
    # distributed loopback workers can run as threads of one process
    jobs = [
        Job(workload=workload, scheme=scheme, scale=SCALE, seed=SEED)
        for workload in WORKLOADS for scheme in ("E2MC", "TSLC-OPT", "BDI")
    ]
    cold = {}
    for job in jobs:
        clear_prepared()
        cold[job] = simulate_job(job).to_dict()
    clear_prepared()
    mismatches, errors = [], []

    def worker(offset: int) -> None:
        try:
            for i in range(len(jobs)):
                job = jobs[(i + offset) % len(jobs)]
                if simulate_job(job).to_dict() != cold[job]:
                    mismatches.append(job)
        except Exception as error:  # surfaced by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and mismatches == []
