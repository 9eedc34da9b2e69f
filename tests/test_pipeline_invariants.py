"""Registry-driven invariants of whole simulations, for every scheme.

One parametrization per registered scheme (``KNOWN_SCHEMES``) plus the
uncompressed baseline, so a newly registered scheme is covered without new
test code.  For NN and BS at scale 1/2048 with the error pass on:

* the production pipeline and the all-scalar reference oracle
  (``GPUSimulator(reference=True)``) give the same result, stored-state
  digest included;
* no stored block takes more bursts than an uncompressed one
  (``block_size // mag``): a compressor never expands a block;
* the stored state accounts for every lossy block, and lossless schemes
  store none (so their application error is 0).
"""

from __future__ import annotations

import functools as ft

import numpy as np
import pytest

from repro.campaign.spec import KNOWN_SCHEMES
from repro.campaign.worker import build_backend
from repro.gpu import simulator as simulator_module
from repro.gpu.backends import NoCompressionBackend, SLCBackend
from repro.gpu.config import GPUConfig
from repro.gpu.memory_controller import MemoryController
from repro.gpu.simulator import GPUSimulator
from repro.workloads.registry import get_workload

CONFIG = GPUConfig()
SCALE = 1.0 / 2048.0
SEED = 2019
WORKLOADS = ("NN", "BS")

backend_configurations = {
    "uncompressed": lambda config: NoCompressionBackend(
        config.block_size_bytes, config.mag_bytes
    ),
    **{scheme: ft.partial(build_backend, scheme) for scheme in KNOWN_SCHEMES},
}


@pytest.fixture(
    scope="module",
    params=backend_configurations.values(),
    ids=backend_configurations.keys(),
)
def backend_factory(request):
    """Builds a fresh backend for a GPU config, one parametrization per scheme."""
    return request.param


def _simulate(backend_factory, workload: str, reference: bool):
    """One run, plus the memory controllers it stored into."""
    controllers: list[MemoryController] = []

    class RecordingController(MemoryController):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            controllers.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator_module, "MemoryController", RecordingController)
        result = GPUSimulator(CONFIG, reference=reference, payload_digest=True).run(
            get_workload(workload, scale=SCALE, seed=SEED),
            backend_factory(CONFIG),
            compute_error=True,
        )
    return result, controllers


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, backend_factory) -> dict:
    """``{reference: (result, controllers)}`` for both pipelines."""
    return {
        reference: _simulate(backend_factory, request.param, reference)
        for reference in (False, True)
    }


def test_reference_matches_production(runs):
    production, _ = runs[False]
    reference, _ = runs[True]
    assert "payload_sha256" in production.extra_metrics
    assert production.to_dict() == reference.to_dict()


def test_no_stored_block_expands(runs):
    max_bursts = CONFIG.block_size_bytes // CONFIG.mag_bytes
    for result, controllers in runs.values():
        bursts = np.concatenate([c.storage.entries["bursts"] for c in controllers])
        assert bursts.size == result.stored_blocks > 0
        assert 0 < bursts.min() and bursts.max() <= max_bursts


def test_lossy_blocks_only_from_lossy_schemes(runs, backend_factory):
    lossy_scheme = isinstance(backend_factory(CONFIG), SLCBackend)
    for result, controllers in runs.values():
        stored_lossy = sum(int(c.storage.entries["lossy"].sum()) for c in controllers)
        assert stored_lossy == result.lossy_blocks
        if not lossy_scheme:
            assert result.lossy_blocks == 0
            assert result.error_percent == 0.0
