"""Per-layer attribution for the traced benchmark run.

The benchmark wraps each simulator layer's public functions from here, so
the program itself carries no benchmark-specific instrumentation.  Methods
are patched on the classes that define them (every ``Workload`` subclass,
both compression backends, both result stores); a function a caller
imported by name is patched under that name as well (for example
``repro.gpu.simulator.replay_trace``).  Wrappers are installed before the
campaign pool forks, so pool workers inherit them (this relies on the
``fork`` start method, the default on Linux).

Each wrapped call records one span through :mod:`repro.obs.tracing`.  Spans
taken inside a campaign job ride back to the parent on the job record like
the program's own spans.  A span's args carry its inclusive and self
seconds (self = inclusive minus the wrapped calls nested inside it, tracked
on a per-process frame stack) and the growth of the process's ``ru_maxrss``
across the call.  The per-block memory-controller calls are too hot for one
span each: they are summed into counters, emitted as one ``COUNTERS`` span
per job.
"""

from __future__ import annotations

import functools
import resource
import time

from repro.obs import tracing

#: span category of every record this module makes
CAT = "perfbench"
#: name of the per-job record holding the hot-call counters
COUNTERS = "perfbench.counters"

LAYERS = (
    "workloads", "blocks", "backends", "memory_controller", "replay",
    "metrics", "simulator", "campaign",
)


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _input_probe(args, kwargs):
    return lambda regions: {
        "input_mib": sum(r.array.nbytes for r in regions.values()) / 2**20
    }


def _store_probe(args, kwargs):
    approximable = kwargs.get("approximable", args[2] if len(args) > 2 else True)

    def finish(stored):
        lossy = sum(block.lossy for block in stored) if approximable else 0
        return {"blocks": len(stored), "approx_blocks": len(stored) * approximable,
                "lossy_blocks": lossy}
    return finish


def _replay_probe(args, kwargs):
    l2, controllers = kwargs["l2"], kwargs["controllers"]

    def totals():
        return (
            l2.stats.hits, l2.stats.accesses,
            sum(c.mdc.stats.hits for c in controllers),
            sum(c.mdc.stats.accesses for c in controllers),
            sum(c.stats.total_bursts for c in controllers),
        )
    before = totals()

    def finish(_):
        delta = [b - a for a, b in zip(before, totals())]
        return {"accesses": len(args[0]), "l2_hits": delta[0],
                "l2_accesses": delta[1], "mdc_hits": delta[2],
                "mdc_accesses": delta[3], "bursts": delta[4]}
    return finish


class LayerTracer:
    """Installs the layer wrappers and holds this process's frame stack."""

    def __init__(self) -> None:
        #: one ``[child seconds]`` cell per open wrapped call
        self.frames: list[list[float]] = []
        #: hot-call name -> [calls, seconds] since the last job ended
        self.hot: dict[str, list[float]] = {}

    # ------------------------------------------------------------------ #
    # wrappers

    def _spanned(self, name, fn, probe=None):
        frames = self.frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = probe(args, kwargs) if probe is not None else None
            frame = [0.0]
            frames.append(frame)
            rss0 = _maxrss_mib()
            with tracing.span(name, cat=CAT) as active:
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    frames.pop()
                    if frames:
                        frames[-1][0] += elapsed
                    active.args.update(
                        dur_s=elapsed, self_s=elapsed - frame[0],
                        rss_growth_mib=_maxrss_mib() - rss0,
                    )
                if finish is not None:
                    active.args.update(finish(result))
            return result
        return wrapper

    def _counted(self, name, fn):
        frames, cell = self.frames, self.hot.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                cell[0] += 1
                cell[1] += elapsed
                if frames:
                    frames[-1][0] += elapsed
        return wrapper

    def _job(self, fn):
        """``execute_job`` wrapper: ships this job's own spans and counters.

        ``execute_job`` drains the spans opened inside it into its payload;
        the job span itself closes afterwards, so it and the counter record
        are appended to the payload here.
        """
        spanned = self._spanned("campaign.execute_job", fn)

        @functools.wraps(fn)
        def wrapper(job_dict):
            mark = tracing.mark()
            payload = spanned(job_dict)
            counters = {name: list(cell) for name, cell in self.hot.items()}
            for cell in self.hot.values():
                cell[:] = [0, 0.0]
            tracing.extend([{
                "name": COUNTERS, "cat": CAT, "ts": 0, "dur": 0, "pid": 0,
                "tid": 0, "args": counters,
            }])
            payload.setdefault("spans", []).extend(tracing.drain(mark))
            return payload
        return wrapper

    def install(self) -> None:
        """Patch every layer boundary (call before the campaign starts)."""
        import repro.campaign.executor as executor
        import repro.campaign.worker as worker
        import repro.gpu.simulator as simulator
        from repro.campaign.store import JSONLResultStore, SQLiteResultStore
        from repro.gpu.backends import LosslessBackend, SLCBackend
        from repro.gpu.memory_controller import MemoryController
        from repro.workloads.base import Workload

        def patch_method(cls, attr, name, probe=None):
            if attr in vars(cls):
                setattr(cls, attr, self._spanned(name, vars(cls)[attr], probe))

        workload_classes, pending = [], [Workload]
        while pending:
            cls = pending.pop()
            workload_classes.append(cls)
            pending.extend(cls.__subclasses__())
        for cls in workload_classes:
            patch_method(cls, "generate", "workloads.generate", _input_probe)
            patch_method(cls, "run", "workloads.run")
            patch_method(cls, "trace", "workloads.trace")
            patch_method(cls, "error", "metrics.error")
        for cls in (SLCBackend, LosslessBackend):
            patch_method(cls, "train", "backends.train")
            patch_method(cls, "store_batch", "backends.store_batch", _store_probe)
        for cls in (JSONLResultStore, SQLiteResultStore):
            patch_method(cls, "put", "campaign.put")
        patch_method(simulator.GPUSimulator, "run", "simulator.run")
        for attr in ("record_stored", "stored_data"):
            setattr(MemoryController, attr, self._counted(
                f"memory_controller.{attr}", vars(MemoryController)[attr]))

        for attr, name, probe in (
            ("array_to_blocks", "blocks.array_to_blocks", None),
            ("blocks_to_array", "blocks.blocks_to_array", None),
            ("replay_trace", "replay.replay_trace", _replay_probe),
            ("fidelity_summary", "metrics.fidelity_summary", None),
        ):
            setattr(simulator, attr,
                    self._spanned(name, getattr(simulator, attr), probe))
        executor.run_jobs = self._spanned("campaign.run_jobs", executor.run_jobs)
        # Pool workers receive execute_job pickled by reference, so the
        # worker module must hold the same wrapper the executor submits.
        worker.execute_job = executor.execute_job = self._job(worker.execute_job)


# ---------------------------------------------------------------------- #
# aggregation (runs in the benchmark's parent process after the campaign)


def _covered_us(interval, others) -> float:
    """Microseconds of ``interval`` covered by the union of ``others``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in others if b > lo and a < hi)
    covered, end = 0.0, lo
    for a, b in clipped:
        if b > end:
            covered += b - max(a, end)
            end = b
    return covered


def layer_metrics(spans: list[dict], wall_s: float, workers: int) -> tuple[dict, list]:
    """Fold the traced run's spans into per-layer metrics and a phase table.

    ``wall_s`` is the traced run's timed wall; ``workers`` the campaign's
    process count.  Returns ``(metrics, rows)`` where each row is
    ``(layer, self seconds, calls)``.
    """
    mine = [s for s in spans if s.get("cat") == CAT]
    by_name: dict[str, list[dict]] = {}
    for s in mine:
        by_name.setdefault(s["name"], []).append(s["args"])

    def total(name, key="dur_s"):
        return sum(a.get(key, 0.0) for a in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    hot = {"memory_controller.record_stored": [0, 0.0],
           "memory_controller.stored_data": [0, 0.0]}
    for counters in by_name.pop(COUNTERS, ()):
        for name, (n, seconds) in counters.items():
            hot[name][0] += n
            hot[name][1] += seconds

    def layer_of(name):
        return name.split(".", 1)[0]

    def growth(*names):
        return sum(total(n, "rss_growth_mib") for n in names)

    # The campaign loop's own time is the part of run_jobs no cell and no
    # store write covers, in any process (a pool parent mostly waits).
    intervals = [(s["ts"], s["ts"] + s["dur"]) for s in mine
                 if s["name"] in ("campaign.execute_job", "campaign.put")]
    run_jobs = [s for s in mine if s["name"] == "campaign.run_jobs"]
    loop_self = sum(
        (s["dur"] - _covered_us((s["ts"], s["ts"] + s["dur"]), intervals)) / 1e6
        for s in run_jobs)
    self_s = {layer: 0.0 for layer in LAYERS}
    n_calls = {layer: 0 for layer in LAYERS}
    for name in by_name:
        if name != "campaign.run_jobs":
            self_s[layer_of(name)] += total(name, "self_s")
        n_calls[layer_of(name)] += calls(name)
    self_s["campaign"] += loop_self
    for name, (n, seconds) in hot.items():
        self_s["memory_controller"] += seconds
        n_calls["memory_controller"] += n
    unattributed = wall_s - total("campaign.run_jobs")

    store_args = by_name.get("backends.store_batch", ())
    approx = sum(a["approx_blocks"] for a in store_args)
    replay_args = by_name.get("replay.replay_trace", ())
    l2_acc = sum(a["l2_accesses"] for a in replay_args)
    mdc_acc = sum(a["mdc_accesses"] for a in replay_args)
    cell_s = total("campaign.execute_job")
    out = {
        "workloads.generate_s": total("workloads.generate"),
        "workloads.generate_calls": calls("workloads.generate"),
        "workloads.kernel_s": total("workloads.run"),
        "workloads.kernel_calls": calls("workloads.run"),
        "workloads.trace_s": total("workloads.trace"),
        "workloads.input_mib": total("workloads.generate", "input_mib"),
        "blocks.split_s": total("blocks.array_to_blocks"),
        "blocks.join_s": total("blocks.blocks_to_array"),
        "backends.train_s": total("backends.train"),
        "backends.store_s": total("backends.store_batch"),
        "backends.blocks_stored": sum(a["blocks"] for a in store_args),
        "backends.lossy_frac": (
            sum(a["lossy_blocks"] for a in store_args) / approx if approx else 0.0),
        "backends.peak_growth_mib": growth("backends.train", "backends.store_batch"),
        "memory_controller.record_stored_s": hot["memory_controller.record_stored"][1],
        "memory_controller.record_stored_calls": hot["memory_controller.record_stored"][0],
        "memory_controller.readback_s": hot["memory_controller.stored_data"][1],
        "memory_controller.readback_calls": hot["memory_controller.stored_data"][0],
        "replay.replay_s": total("replay.replay_trace"),
        "replay.accesses": sum(a["accesses"] for a in replay_args),
        "replay.l2_hit_rate": (
            sum(a["l2_hits"] for a in replay_args) / l2_acc if l2_acc else 0.0),
        "replay.mdc_hit_rate": (
            sum(a["mdc_hits"] for a in replay_args) / mdc_acc if mdc_acc else 0.0),
        "replay.total_bursts": sum(a["bursts"] for a in replay_args),
        "replay.peak_growth_mib": growth("replay.replay_trace"),
        "metrics.app_error_s": total("metrics.error"),
        "metrics.fidelity_s": total("metrics.fidelity_summary"),
        "metrics.peak_growth_mib": growth("metrics.error", "metrics.fidelity_summary"),
        "campaign.cell_s": cell_s,
        "campaign.store_put_s": total("campaign.put"),
        "campaign.idle_frac": 1.0 - cell_s / (workers * wall_s),
        "trace.unattributed_s": unattributed,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    rows = [(layer, self_s[layer], n_calls[layer]) for layer in LAYERS]
    rows.append(("unattributed", unattributed, 0))
    return out, rows

