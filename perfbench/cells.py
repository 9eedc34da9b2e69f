"""The benchmark's workloads and the check on their outputs.

Each workload is one campaign grid, run through ``run_campaign`` against a
fresh result store.  Why each one is here is in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from repro.campaign import CampaignSpec
from repro.campaign.spec import (
    ALL_WORKLOADS,
    BASELINE_SCHEME,
    LOSSLESS_SCHEMES,
    PAPER_SCHEMES,
    PAPER_WORKLOADS,
)
from repro.compression.stats import geometric_mean
from repro.gpu.config import GPUConfig

#: the seed the golden digests were recorded with
DEFAULT_SEED = 2019

#: Table II defaults every benchmark cell runs with
CONFIG = GPUConfig()

FIDELITY_KEYS = ("fidelity_pearson", "fidelity_ks", "fidelity_iqr_mean",
                 "fidelity_iqr_max")


@dataclass(frozen=True)
class BenchWorkload:
    name: str
    workloads: tuple[str, ...]
    schemes: tuple[str, ...]
    scale: float
    workers: int

    def spec(self, seed: int) -> CampaignSpec:
        return CampaignSpec(
            workloads=self.workloads, schemes=self.schemes,
            lossy_thresholds=(16,), scales=(self.scale,), seeds=(seed,),
            compute_error=True, name=self.name,
        )


WORKLOADS = {
    w.name: w for w in (
        BenchWorkload("fig7-sweep", PAPER_WORKLOADS, PAPER_SCHEMES, 1 / 64, 2),
        BenchWorkload("nn-large", ("NN",), ("TSLC-OPT",), 1 / 4, 1),
        BenchWorkload("lossless-tournament", ALL_WORKLOADS,
                      (BASELINE_SCHEME, *LOSSLESS_SCHEMES), 1 / 64, 1),
    )
}


def digest(result: dict) -> str:
    """Short digest of a cell's whole result: counters, error, fidelity."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def check_cell(job, record) -> str | None:
    """The invariants every cell must meet on any seed; None when it does.

    The footprint check sums each block's stored bits as the codec reported
    them, before the cap at the raw block size.  It bounds the cell's
    compression as a whole; it is not the per-block burst bound, which the
    results do not carry.
    """
    if not record.ok:
        return f"status {record.status}"
    result = record.result
    uncompressed_bits = result.stored_blocks * CONFIG.block_size_bytes * 8
    if result.extra_metrics["stored_bits"] > uncompressed_bits:
        return "stored footprint exceeds the uncompressed one"
    if job.compute_error:
        fidelity = [result.extra_metrics.get(k) for k in FIDELITY_KEYS]
        if not all(v is not None and math.isfinite(v) for v in fidelity):
            return f"fidelity panel not finite: {fidelity}"
        if not math.isfinite(result.error_percent):
            return "error_percent not finite"
    return None


def check_outcome(outcome, golden: dict | None) -> tuple[dict, dict]:
    """Per-cell digests and failures (label -> reason) of one campaign run.

    ``golden`` maps cell label to its recorded digest; every cell must be
    present and match.
    """
    digests, failures = {}, {}
    for job in outcome.jobs:
        label = job.label()
        record = outcome.records.get(job.content_hash)
        if record is None:
            failures[label] = "no record"
            continue
        reason = check_cell(job, record)
        if record.ok:
            digests[label] = digest(record.result.to_dict())
        if reason is None and golden is not None and golden.get(label) != digests[label]:
            reason = f"digest {digests[label]} != golden {golden.get(label)}"
        if reason is not None:
            failures[label] = reason
    return digests, failures


def model_metrics(outcome) -> dict:
    """Simulated (modelled-GPU) summary of the grid.

    ``model.gm_speedup_tslc_opt`` is the geometric-mean speedup of TSLC-OPT
    over E2MC across workloads holding both cells (Fig. 7); 0 when none
    does.  ``model.mean_error_pct`` is the arithmetic mean of TSLC-OPT's
    application error; a geometric mean is undefined because some cells
    (SRAD1) have exactly zero error.  0 when no TSLC-OPT cell ran.
    """
    cells = {(job.workload, job.scheme): record.result
             for job, record in outcome.iter_records() if record.ok}
    speedups = [cells[(w, "TSLC-OPT")].speedup_over(cells[(w, BASELINE_SCHEME)])
                for w, s in cells if s == "TSLC-OPT" and (w, BASELINE_SCHEME) in cells]
    errors = [r.error_percent for (w, s), r in cells.items() if s == "TSLC-OPT"]
    return {
        "model.gm_speedup_tslc_opt": geometric_mean(speedups) if speedups else 0.0,
        "model.mean_error_pct": sum(errors) / len(errors) if errors else 0.0,
    }
