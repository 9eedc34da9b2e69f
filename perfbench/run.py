"""End-to-end benchmark of the SLC reproduction: Fig. 7 sweep, a large NN
cell and the lossless tournament.

    python3 perfbench/run.py [--workload NAME] [--seed 2019] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Without ``--workload`` all three
workloads run in turn.  Every sample runs in a fresh Python process
(``child.py``); samples are started until ``--seconds`` is used up (default:
``run_seconds`` of ``BENCHMARK.json``), and set-up is sampled by extra
processes.  Metrics are medians over the samples.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count grid cells; ``metrics`` holds the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics of traced samples run alternately
with untraced ones.  ``README.md`` explains the workloads, the metrics and
the phase table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ("fig7-sweep", "nn-large", "lossless-tournament")
DEFAULT_SEED = 2019
#: set-up time is noisy at a third of a second: take at least this many
SETUP_SAMPLES = 15
#: a sample that takes longer than this is killed and fails the run
CHILD_TIMEOUT_S = 170
#: program settings that change what is measured; samples run without them
CLEARED_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_CHUNK_ACCESSES")
CLEARED_PREFIX = "REPRO_OBS_"

#: per-layer metrics that come from the modelled GPU, not host time; any
#: change in one is a change of results, never a gain
SIMULATED = {
    "backends.blocks_stored", "backends.lossy_frac", "replay.accesses",
    "replay.l2_hit_rate", "replay.mdc_hit_rate", "replay.total_bursts",
    "model.gm_speedup_tslc_opt", "model.mean_error_pct",
}


def unit(metric: str) -> str:
    for suffix, name in (("_s", "s"), ("_mib", "MiB"), ("_frac", "frac"),
                         ("_rate", "frac"), ("_speedup_tslc_opt", "x"),
                         ("_pct", "%")):
        if metric.endswith(suffix):
            return name
    return "count"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in CLEARED_ENV and not k.startswith(CLEARED_PREFIX)}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def fingerprint() -> dict:
    """Facts about the host a reading depends on (recorded, never gated)."""
    import numpy as np

    data = np.random.default_rng(0).random(1 << 20)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.sort(data)
        times.append(time.perf_counter() - start)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_sort_1m_ms": round(1000 * statistics.median(times), 3),
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "cleared_for_samples": [*CLEARED_ENV, CLEARED_PREFIX + "*"],
    }


class Runner:
    def __init__(self, seed: int, tmp: str) -> None:
        self.seed = seed
        self.tmp = tmp
        self.env = child_env()
        self.golden = GOLDEN if seed == DEFAULT_SEED else None

    def sample(self, workload: str, trace: int = 0, setup_only: bool = False,
               golden: bool = True) -> dict:
        cmd = [sys.executable, str(CHILD), "--workload", workload,
               "--seed", str(self.seed), "--trace", str(trace), "--tmp", self.tmp]
        if setup_only:
            cmd.append("--setup-only")
        if golden and self.golden is not None:
            cmd += ["--golden", str(self.golden)]
        t0 = time.monotonic()
        # its own process group, so a timeout also kills the campaign pool under it
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=self.env, cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, process_group=0)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} sample failed:\n{err[-4000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def run(self, workload: str, seconds: float, trace: int) -> dict:
        """Sample ``workload`` for about ``seconds``; returns its result."""
        kinds = (0, 1) if trace else (0,)
        samples: dict[int, list[dict]] = {0: [], 1: []}
        start, longest = time.monotonic(), 0.0
        while True:
            for kind in kinds:
                begun = time.monotonic()
                samples[kind].append(self.sample(workload, kind))
                longest = max(longest, time.monotonic() - begun)
            if time.monotonic() - start + longest * len(kinds) > seconds:
                break
        plain, traced = samples[0], samples[1]
        every = plain + traced

        attempted = sum(s["attempted"] for s in every)
        bad = [set(s["failures"]) for s in every]
        # every sample, traced or not, must produce the same cells
        reference = every[0]
        for s, bad_cells in zip(every, bad):
            bad_cells.update(
                label for label in set(s["digests"]) | set(reference["digests"])
                if s["digests"].get(label) != reference["digests"].get(label))
            if s["model"] != reference["model"]:
                bad_cells.add("model")
        failed = sum(len(b) for b in bad)
        reasons = {k: v for s in every for k, v in s["failures"].items()}

        walls = [s["wall_s"] for s in plain]
        result = {
            "workload": workload, "attempted": attempted, "failed": failed,
            "failures": reasons, "samples": len(plain), "model": reference["model"],
            "cells": reference["attempted"], "walls": walls,
        }
        if trace:
            per_layer = {
                name: statistics.median(s["layers"][name] for s in traced)
                for name in traced[0]["layers"]
            }
            per_layer.update(reference["model"])
            per_layer["trace.overhead_frac"] = (
                statistics.median(s["wall_s"] for s in traced)
                / statistics.median(walls) - 1.0)
            result["metrics"] = per_layer
            result["phase_rows"] = [
                (layer, per_layer[f"{layer}.self_s"], calls)
                for layer, _, calls in traced[0]["phase_rows"]
                if layer != "unattributed"
            ] + [("unattributed", per_layer["trace.unattributed_s"], 0)]
            return result

        setups = [s["setup_s"] for s in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.sample(workload, setup_only=True)["setup_s"])
        result["setups"] = setups
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in plain),
        }
        return result

    def record_golden(self, workload: str) -> None:
        """Store the cell digests of one run as the default seed's reference."""
        sample = self.sample(workload, golden=False)
        if sample["failures"]:
            raise RuntimeError(f"refusing to record failing cells: {sample['failures']}")
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {
            "seed": DEFAULT_SEED, "workloads": {}}
        golden["workloads"][workload] = sample["digests"]
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def report(result: dict, trace: int, seed: int) -> None:
    name, metrics = result["workload"], result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {name}  seed {seed}  {result['samples']} untraced sample(s) "
          f"of {result['cells']} cells ==")
    if trace:
        for metric, value in metrics.items():
            label = "simulated, must not change" if metric in SIMULATED else "host"
            print(f"  {metric:<38} {value:>14.6g} {unit(metric):<6} [{label}]")
        print(phase_table(result["phase_rows"],
                          f"Phase table, {name} (traced, seed {seed}):"))
    else:
        walls, setups = result["walls"], result["setups"]
        print(f"  {'wall_s':<14} {metrics['wall_s']:>10.4f} s    [host] median of "
              f"{len(walls)}, range {min(walls):.4f}-{max(walls):.4f}")
        print(f"  {'setup_s':<14} {metrics['setup_s']:>10.4f} s    [host] median of "
              f"{len(setups)}, range {min(setups):.4f}-{max(setups):.4f}")
        print(f"  {'peak_rss_mib':<14} {metrics['peak_rss_mib']:>10.1f} MiB  [host] "
              "process + largest child, median")
        for metric, value in result["model"].items():
            print(f"  {metric:<14} {value:>10.4f} {unit(metric):<4} [simulated]")
    print(f"  {'failed_frac':<14} {failed / attempted:>10.4f} frac "
          f"({failed} of {attempted} cells)")
    for label, reason in sorted(result["failures"].items()):
        print(f"  FAILED {label}: {reason}")


def phase_table(rows: list, title: str) -> str:
    """Render ``(layer, self seconds, calls)`` rows as a markdown table."""
    grand = sum(seconds for _, seconds, _ in rows) or 1.0
    lines = [title, "", "| layer | self s (host) | share | calls |",
             "|---|---:|---:|---:|"]
    for layer, seconds, n in sorted(rows, key=lambda r: -r[1]):
        lines.append(f"| {layer} | {seconds:.3f} | {100 * seconds / grand:.1f}% | {n} |")
    lines.append(f"| total | {grand:.3f} | 100.0% | |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all three in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="time budget for the measured samples of one workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record the default seed's cell digests and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    if args.record_golden and args.seed != DEFAULT_SEED:
        parser.error(f"--record-golden records seed {DEFAULT_SEED} only")
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        runner = Runner(args.seed, tmp)
        if args.record_golden:
            for workload in workloads:
                runner.record_golden(workload)
            print(f"recorded {GOLDEN}")
            return 0
        print("host: " + json.dumps(fingerprint(), sort_keys=True))
        results = []
        for workload in workloads:
            result = runner.run(workload, args.seconds, args.trace)
            report(result, args.trace, args.seed)
            results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v
                   for r in results for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit(m)} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
