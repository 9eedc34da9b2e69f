"""Golden slice of the error path: application error and fidelity panel.

``tests/test_golden_results.py`` runs every cell with ``compute_error=False``,
so it never reads the stored blocks back.  This slice runs every registered
workload × {E2MC, TSLC-OPT} at MAG 32 with the error pass on and pins the
whole result — ``error_percent``, the four ``fidelity_*`` values and the
``payload_sha256`` digest of the stored state among it — exactly, for both
the production pipeline and the scalar reference (per-block store,
per-access replay, per-block payload codec).

The simulator is driven directly rather than through a campaign ``Job``:
jobs pin ``compute_error`` off for lossless schemes, and the lossless error
path (readback equals the input, error 0, perfect fidelity) is part of what
this slice pins.

Regenerate the fixture (only when simulation semantics intentionally
change) with::

    PYTHONPATH=src python tests/test_golden_error_path.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign.spec import BASELINE_SCHEME
from repro.campaign.worker import build_backend
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import GPUSimulator
from repro.workloads.registry import (
    EXTENDED_WORKLOAD_ORDER,
    PAPER_WORKLOAD_ORDER,
    get_workload,
)

FIXTURE_PATH = Path(__file__).parent / "golden_error_results.json"

SCALE = 1.0 / 2048.0
SEED = 2019
MAG = 32
SCHEMES = (BASELINE_SCHEME, "TSLC-OPT")
WORKLOADS = (*PAPER_WORKLOAD_ORDER, *EXTENDED_WORKLOAD_ORDER)
GRID = [(workload, scheme) for workload in WORKLOADS for scheme in SCHEMES]

ERROR_KEYS = ("fidelity_pearson", "fidelity_ks", "fidelity_iqr_mean",
              "fidelity_iqr_max")


def cell_key(workload: str, scheme: str) -> str:
    return f"{workload}/{scheme}/mag{MAG}"


def run_cell(workload: str, scheme: str, scalar: bool) -> dict:
    """One cell with the error pass on, production or scalar reference."""
    config = GPUConfig()
    simulator = GPUSimulator(
        config=config,
        batch_store=not scalar,
        replay_mode="scalar" if scalar else "vectorized",
        payload_digest=True,
    )
    backend = build_backend(
        scheme, config, lossy_threshold_bytes=MAG // 2, mag_bytes=MAG,
        batch_codec=not scalar,
    )
    workload_obj = get_workload(workload, scale=SCALE, seed=SEED)
    return simulator.run(workload_obj, backend, compute_error=True).to_dict()


@pytest.fixture(scope="module")
def golden() -> dict:
    if not FIXTURE_PATH.exists():  # pragma: no cover - developer guidance
        pytest.fail(
            "tests/golden_error_results.json is missing; regenerate it with "
            "`PYTHONPATH=src python tests/test_golden_error_path.py`"
        )
    return json.loads(FIXTURE_PATH.read_text())


def test_fixture_matches_grid(golden):
    assert golden["scale"] == SCALE
    assert golden["seed"] == SEED
    assert sorted(golden["cells"]) == sorted(cell_key(*cell) for cell in GRID)


def test_fixture_pins_the_error_path(golden):
    """Every cell carries the panel; lossless cells are exact, TSLC ones not all."""
    for key, cell in golden["cells"].items():
        extra = cell["extra_metrics"]
        assert all(name in extra for name in (*ERROR_KEYS, "payload_sha256")), key
        if key.split("/")[1] == BASELINE_SCHEME:
            assert cell["error_percent"] == 0.0, key
            assert extra["fidelity_pearson"] == 1.0, key
            assert extra["fidelity_iqr_max"] == 0.0, key
    degraded = [
        key for key, cell in golden["cells"].items()
        if "TSLC" in key and cell["extra_metrics"]["fidelity_iqr_max"] > 0.0
    ]
    assert len(degraded) >= len(WORKLOADS) // 2, degraded


@pytest.mark.parametrize(
    ("workload", "scheme"), GRID, ids=[cell_key(*cell) for cell in GRID]
)
def test_golden_error_cell(golden, workload, scheme):
    """Production and scalar reference reproduce the fixture bit-exactly."""
    expected = golden["cells"][cell_key(workload, scheme)]
    assert run_cell(workload, scheme, scalar=False) == expected
    assert run_cell(workload, scheme, scalar=True) == expected


def regenerate() -> None:  # pragma: no cover - manual fixture refresh
    cells = {}
    for workload, scheme in GRID:
        key = cell_key(workload, scheme)
        cells[key] = run_cell(workload, scheme, scalar=True)
        print(f"{key:<22} error={cells[key]['error_percent']:.6g}%")
    payload = {"scale": SCALE, "seed": SEED, "cells": cells}
    FIXTURE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH} ({len(cells)} cells)")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
