"""One measured run of one benchmark workload, in a fresh process.

``run.py`` starts this script once per sample, so every sample pays the
program's real start-up and reports a peak RSS of its own process tree.  It
prints one JSON object on its last line of standard output.

    python3 perfbench/child.py --workload fig7-sweep --seed 2019 --trace 0 \\
        --t0 <time.monotonic() at spawn> --tmp <scratch dir inside the checkout>
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

# setup_s starts before this import block: the parent passes its clock in --t0
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cells  # noqa: E402
import layers  # noqa: E402
from repro.campaign import ResultStore, run_campaign  # noqa: E402
from repro.obs import tracing  # noqa: E402


def peak_rss_mib() -> float:
    """High-water RSS of this process plus that of its largest reaped child.

    ``RUSAGE_CHILDREN`` covers the campaign pool's workers once the pool has
    joined them.  The sum reads high when the two peaks did not coincide and
    low when several workers peaked at once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(cells.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--golden", help="JSON file of recorded cell digests")
    args = parser.parse_args()

    bench = cells.WORKLOADS[args.workload]
    spec = bench.spec(args.seed)
    with tempfile.TemporaryDirectory(dir=args.tmp) as store_dir:
        store = ResultStore(store_dir)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            layers.LayerTracer().install()
            tracing.enable()
        start = time.perf_counter()
        outcome = run_campaign(spec, store=store, workers=bench.workers)
        wall_s = time.perf_counter() - start
    peak = peak_rss_mib()

    golden = None
    if args.golden:
        golden = json.loads(Path(args.golden).read_text())["workloads"][args.workload]
    digests, failures = cells.check_outcome(outcome, golden)
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": peak,
        "attempted": len(outcome.jobs),
        "failures": failures,
        "digests": digests,
        "model": cells.model_metrics(outcome),
    }
    if args.trace:
        per_layer, rows = layers.layer_metrics(
            tracing.collected(), wall_s, bench.workers)
        report["layers"] = per_layer
        report["phase_rows"] = rows
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
