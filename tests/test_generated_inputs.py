"""Pins every generated input array and every exact kernel output.

The result goldens (``tests/golden_results.json`` and friends) catch a
change in data generation only as a downstream drift of some simulated
counter or error figure.  This suite pins the data itself: a SHA-256 of
each region array and each exact-output array (dtype, shape and bytes)
for every registered workload at :data:`SCALE`, plus NN at
:data:`NN_SCALE`, so a generator or kernel change fails at its source.

Regenerate the fixture (only when generated data intentionally changes)
with::

    PYTHONPATH=src python tests/test_generated_inputs.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.registry import available_workloads, get_workload

FIXTURE_PATH = Path(__file__).parent / "golden_inputs.json"

SCALE = 1.0 / 64.0
SEED = 2019
#: NN's records dominate the largest benchmark cell; pin a bigger instance too
NN_SCALE = 1.0 / 16.0

CASES = [(name, SCALE) for name in available_workloads()] + [("NN", NN_SCALE)]


def _case_id(name: str, scale: float) -> str:
    return f"{name}@1/{round(1 / scale)}"


def _digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    hasher = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    hasher.update(array.tobytes())
    return hasher.hexdigest()


def _digests(name: str, scale: float) -> dict[str, str]:
    workload = get_workload(name, scale=scale, seed=SEED)
    regions = workload.generate()
    outputs = workload.run(workload.input_arrays(regions))
    digests = {f"region:{key}": _digest(region.array) for key, region in regions.items()}
    digests.update(
        {f"output:{key}": _digest(array) for key, array in outputs.arrays.items()}
    )
    return digests


@pytest.fixture(scope="module")
def fixture() -> dict[str, dict[str, str]]:
    return json.loads(FIXTURE_PATH.read_text())


def test_fixture_covers_every_case(fixture):
    assert sorted(fixture) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize("name,scale", CASES, ids=[_case_id(*case) for case in CASES])
def test_generated_arrays_match_fixture(fixture, name, scale):
    assert _digests(name, scale) == fixture[_case_id(name, scale)]


if __name__ == "__main__":
    FIXTURE_PATH.write_text(
        json.dumps({_case_id(*case): _digests(*case) for case in CASES}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {FIXTURE_PATH} ({len(CASES)} cases)")
