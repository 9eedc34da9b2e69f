"""Trace-driven GPU simulator.

Ties the substrates together: a workload generates its data and memory trace,
a compression backend decides how every block is stored, the L2 cache filters
the trace into memory-controller traffic, GDDR5 channels turn bursts into
busy time, and analytic timing/energy models turn the resulting counters into
execution time, energy and EDP.  Kernel outputs recomputed from the degraded
(approximated) inputs feed the application-specific error metric.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.backends import CompressionBackend
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig
from repro.gpu.energy import EnergyBreakdown, EnergyModel
from repro.gpu.memory_controller import MemoryController
from repro.gpu.sm import SMCluster
from repro.metrics.fidelity import fidelity_summary
from repro.obs import metrics
from repro.obs.tracing import span
from repro.replay.engine import replay_trace
from repro.replay.reference import replay_trace_scalar
from repro.utils.blocks import array_to_blocks, block_matrix, blocks_to_array
from repro.utils.sampling import sample_evenly
from repro.workloads.base import Region, Workload, WorkloadOutput


@dataclass(frozen=True)
class SimulationResult:
    """Everything one simulation run produces.

    The relative metrics of the paper's figures (speedup, normalized
    bandwidth, energy, EDP) are obtained by dividing the corresponding fields
    of two results (scheme vs. the E2MC baseline).
    """

    workload: str
    backend: str
    exec_time_s: float
    compute_time_s: float
    memory_time_s: float
    exposed_latency_s: float
    compute_ops: float
    total_bursts: int
    read_bursts: int
    write_bursts: int
    dram_bytes: int
    dram_row_misses: int
    l2_accesses: int
    l2_hit_rate: float
    stored_blocks: int
    lossy_blocks: int
    error_percent: float
    energy: EnergyBreakdown
    mdc_hit_rate: float = 1.0
    extra_metrics: dict = field(default_factory=dict)

    @property
    def energy_j(self) -> float:
        """Total energy in joules."""
        return self.energy.total_j

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self.energy.edp(self.exec_time_s)

    @property
    def memory_bound_fraction(self) -> float:
        """How much of the execution time the memory system accounts for."""
        if self.exec_time_s == 0:
            return 0.0
        return min(1.0, self.memory_time_s / self.exec_time_s)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Execution-time speedup of this run relative to ``baseline``."""
        if self.exec_time_s == 0:
            raise ZeroDivisionError("cannot compute speedup of a zero-time run")
        return baseline.exec_time_s / self.exec_time_s

    def bandwidth_ratio_over(self, baseline: "SimulationResult") -> float:
        """Off-chip traffic of this run normalized to ``baseline`` (lower is better)."""
        if baseline.dram_bytes == 0:
            raise ZeroDivisionError("baseline transferred no data")
        return self.dram_bytes / baseline.dram_bytes

    def energy_ratio_over(self, baseline: "SimulationResult") -> float:
        """Energy of this run normalized to ``baseline`` (lower is better)."""
        return self.energy_j / baseline.energy_j

    def edp_ratio_over(self, baseline: "SimulationResult") -> float:
        """EDP of this run normalized to ``baseline`` (lower is better)."""
        return self.edp / baseline.edp

    # ------------------------------------------------------------------ #
    # serialization (the campaign result store persists results as JSON)

    def to_dict(self) -> dict:
        """The result as a JSON-serializable dict (lossless round trip).

        Floats survive JSON exactly (``json`` emits ``repr``-precision
        values), so ``from_dict(json.loads(json.dumps(to_dict())))``
        reconstructs an identical result.
        """
        return {
            "workload": self.workload,
            "backend": self.backend,
            "exec_time_s": self.exec_time_s,
            "compute_time_s": self.compute_time_s,
            "memory_time_s": self.memory_time_s,
            "exposed_latency_s": self.exposed_latency_s,
            "compute_ops": self.compute_ops,
            "total_bursts": self.total_bursts,
            "read_bursts": self.read_bursts,
            "write_bursts": self.write_bursts,
            "dram_bytes": self.dram_bytes,
            "dram_row_misses": self.dram_row_misses,
            "l2_accesses": self.l2_accesses,
            "l2_hit_rate": self.l2_hit_rate,
            "stored_blocks": self.stored_blocks,
            "lossy_blocks": self.lossy_blocks,
            "error_percent": self.error_percent,
            "energy": self.energy.to_dict(),
            "mdc_hit_rate": self.mdc_hit_rate,
            "extra_metrics": dict(self.extra_metrics),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Reconstruct a result produced by :meth:`to_dict`."""
        return cls(
            workload=data["workload"],
            backend=data["backend"],
            exec_time_s=float(data["exec_time_s"]),
            compute_time_s=float(data["compute_time_s"]),
            memory_time_s=float(data["memory_time_s"]),
            exposed_latency_s=float(data["exposed_latency_s"]),
            compute_ops=float(data["compute_ops"]),
            total_bursts=int(data["total_bursts"]),
            read_bursts=int(data["read_bursts"]),
            write_bursts=int(data["write_bursts"]),
            dram_bytes=int(data["dram_bytes"]),
            dram_row_misses=int(data["dram_row_misses"]),
            l2_accesses=int(data["l2_accesses"]),
            l2_hit_rate=float(data["l2_hit_rate"]),
            stored_blocks=int(data["stored_blocks"]),
            lossy_blocks=int(data["lossy_blocks"]),
            error_percent=float(data["error_percent"]),
            energy=EnergyBreakdown.from_dict(data["energy"]),
            mdc_hit_rate=float(data.get("mdc_hit_rate", 1.0)),
            extra_metrics=dict(data.get("extra_metrics", {})),
        )


class GPUSimulator:
    """Trace-driven simulation of one workload under one compression backend.

    Args:
        config: GPU configuration (Table II by default).
        energy_model: energy model; a default :class:`EnergyModel` is created
            when omitted.
        sm_efficiency: achieved fraction of peak SM issue rate.
        overlap_penalty: fraction of the shorter of (compute, memory) time
            that is *not* hidden under the longer one — models imperfect
            overlap of computation and memory transfers.
        train_samples: number of blocks sampled per workload to train the
            compression backend's probability model (E2MC's online sampling).
        reference: run the all-scalar reference oracle instead of the
            production pipeline: the host-to-device store calls the
            backend's per-block ``store`` (through
            :meth:`MemoryController.store_block`) for every block, and the
            kernel-execution phase replays the trace with the per-access
            loop of :func:`~repro.replay.reference.replay_trace_scalar`.
            Results are bit-identical to the default batched kernels and
            array replay engine; the oracle exists for equivalence tests and
            as the baseline of the end-to-end benchmarks.
        payload_digest: record a SHA-256 digest of the final stored state —
            every stored block's address, burst count, stored bits, lossy
            flag and (possibly degraded) data bytes, in address order — as
            ``extra_metrics["payload_sha256"]``.  The golden-result suite
            uses it to pin the reference and production pipelines to the
            same bytes; off by default because campaign results are meant
            to be content-comparable across runs that store different
            amounts of data (e.g. different trace subsets).
    """

    def __init__(
        self,
        config: GPUConfig | None = None,
        energy_model: EnergyModel | None = None,
        sm_efficiency: float = 0.7,
        overlap_penalty: float = 0.15,
        train_samples: int = 1024,
        reference: bool = False,
        payload_digest: bool = False,
    ) -> None:
        self.config = config or GPUConfig()
        self.energy_model = energy_model or EnergyModel()
        self.sm_cluster = SMCluster(self.config, efficiency=sm_efficiency)
        if not 0 <= overlap_penalty <= 1:
            raise ValueError("overlap_penalty must be within [0, 1]")
        if train_samples <= 0:
            raise ValueError("train_samples must be positive")
        self.overlap_penalty = overlap_penalty
        self.train_samples = train_samples
        self.reference = reference
        self.payload_digest = payload_digest

    # ------------------------------------------------------------------ #
    # public API

    def run(
        self,
        workload: Workload,
        backend: CompressionBackend,
        compute_error: bool = True,
    ) -> SimulationResult:
        """Simulate ``workload`` with ``backend`` and return the result."""
        block_size = self.config.block_size_bytes

        with span("sim.generate", cat="sim", workload=workload.name):
            input_regions = workload.generate()
            exact_outputs = workload.run(workload.input_arrays(input_regions))
            all_regions: dict[str, Region] = dict(input_regions)
            all_regions.update(workload.output_regions(exact_outputs))

            region_blocks = {
                name: block_matrix(region.array, block_size)
                for name, region in all_regions.items()
            }
            # One copy of each region's bytes: where the split had to copy
            # (a padded tail block), the region array now views the copy.
            for name, region in all_regions.items():
                region.array = blocks_to_array(
                    region_blocks[name], region.array.dtype, region.array.shape,
                    block_size=block_size,
                )
            base_addresses = self._layout(all_regions, region_blocks)

        with span("sim.train", cat="sim", workload=workload.name):
            self._train_backend(backend, input_regions, region_blocks)

        controllers = [
            MemoryController(
                controller_id=i,
                backend=backend,
                mag_bytes=self.config.mag_bytes,
                block_size_bytes=block_size,
            )
            for i in range(self.config.num_memory_controllers)
        ]
        l2 = SetAssociativeCache(
            size_bytes=self.config.l2_cache_kb * 1024,
            line_bytes=self.config.l2_line_bytes,
            ways=self.config.l2_ways,
        )

        # Host-to-device copy: every input region is compressed and stored.
        # This traffic happens before the kernel and is not charged to it.
        with span("sim.h2d_store", cat="sim", workload=workload.name,
                  reference=self.reference):
            if self.reference:
                for name, region in input_regions.items():
                    base = base_addresses[name]
                    blocks = array_to_blocks(region.array, block_size)
                    for index, block in enumerate(blocks):
                        self._controller(controllers, base + index).store_block(
                            base + index,
                            block,
                            approximable=region.approximable,
                            count_traffic=False,
                        )
            else:
                self._store_inputs(
                    backend, controllers, input_regions, region_blocks, base_addresses
                )

        # Kernel execution: replay the workload's block trace through the L2.
        # The array engine (repro.replay) and the scalar per-access loop of
        # the reference oracle produce bit-identical counters.
        with span("sim.trace_build", cat="sim", workload=workload.name):
            trace = workload.trace(all_regions, block_size_bytes=block_size)
        replay = replay_trace_scalar if self.reference else replay_trace
        with span("sim.replay", cat="sim", workload=workload.name,
                  reference=self.reference, accesses=len(trace)):
            replay(
                trace,
                all_regions=all_regions,
                region_blocks=region_blocks,
                base_addresses=base_addresses,
                l2=l2,
                controllers=controllers,
                interleave_blocks=self.CHANNEL_INTERLEAVE_BLOCKS,
            )

        error_percent = 0.0
        fidelity: dict[str, float] = {}
        if compute_error:
            with span("sim.error", cat="sim", workload=workload.name):
                degraded = self._degraded_inputs(
                    input_regions, region_blocks, base_addresses, controllers
                )
                approx_outputs = workload.run(degraded)
                error_percent = workload.error(exact_outputs, approx_outputs)
                fidelity = self._region_fidelity(input_regions, degraded)

        return self._assemble_result(
            workload, backend, all_regions, controllers, l2, error_percent,
            fidelity=fidelity,
        )

    # ------------------------------------------------------------------ #
    # pipeline stages

    def _layout(
        self,
        regions: dict[str, Region],
        region_blocks: dict[str, np.ndarray],
    ) -> dict[str, int]:
        """Assign each region a base block address in a flat address space."""
        base_addresses: dict[str, int] = {}
        next_block = 0
        for name in regions:
            base_addresses[name] = next_block
            next_block += len(region_blocks[name])
        return base_addresses

    #: consecutive blocks kept on the same controller (2 KB, one DRAM row)
    #: before moving to the next — the coarse interleaving real GPUs use to
    #: preserve row-buffer locality while still balancing channels.
    CHANNEL_INTERLEAVE_BLOCKS = 16

    def _controller(
        self, controllers: list[MemoryController], block_address: int
    ) -> MemoryController:
        """Interleave block addresses across memory controllers."""
        group = block_address // self.CHANNEL_INTERLEAVE_BLOCKS
        return controllers[group % len(controllers)]

    def _train_backend(
        self,
        backend: CompressionBackend,
        input_regions: dict[str, Region],
        region_blocks: dict[str, np.ndarray],
    ) -> None:
        """Sample input blocks to train the backend's probability model.

        The samples are spread evenly over the input blocks in address
        order.  The heavy part of training — counting 16-bit symbols over
        the sampled bytes — runs as one ``np.bincount`` inside the symbol
        model (:meth:`repro.compression.e2mc.SymbolModel.fit`).
        """
        matrices = [region_blocks[name] for name in input_regions]
        ends = np.cumsum([matrix.shape[0] for matrix in matrices])
        total = int(ends[-1]) if matrices else 0
        if not total:
            return
        picks = np.asarray(sample_evenly(range(total), self.train_samples))
        owner = np.searchsorted(ends, picks, side="right")
        starts = ends - [matrix.shape[0] for matrix in matrices]
        backend.train([
            matrices[region][pick - starts[region]].tobytes()
            for region, pick in zip(owner.tolist(), picks.tolist())
        ])

    def _store_inputs(
        self,
        backend: CompressionBackend,
        controllers: list[MemoryController],
        input_regions: dict[str, Region],
        region_blocks: dict[str, np.ndarray],
        base_addresses: dict[str, int],
    ) -> None:
        """Host-to-device copy: one ``store_batch`` call per input region.

        Each controller books its interleaved share of the region's blocks
        in one :meth:`~MemoryController.record_stored_batch` call.
        """
        interleave = self.CHANNEL_INTERLEAVE_BLOCKS
        for name, region in input_regions.items():
            batch = backend.store_batch(
                region_blocks[name], approximable=region.approximable
            )
            addresses = base_addresses[name] + np.arange(len(batch))
            owner = (addresses // interleave) % len(controllers)
            for c, controller in enumerate(controllers):
                index = np.flatnonzero(owner == c)
                if index.size:
                    controller.record_stored_batch(addresses[index], batch, index)

    def _degraded_inputs(
        self,
        input_regions: dict[str, Region],
        region_blocks: dict[str, np.ndarray],
        base_addresses: dict[str, int],
        controllers: list[MemoryController],
    ) -> dict[str, np.ndarray]:
        """The input arrays as the kernel reads them back.

        A region whose every stored block still reads as its own bytes is
        returned as a read-only view of itself; otherwise its block matrix
        is copied once and each controller's differing (degraded) blocks
        are gathered into it.
        """
        degraded: dict[str, np.ndarray] = {}
        for name, region in input_regions.items():
            base, blocks = base_addresses[name], region_blocks[name]
            readback = None
            for controller in controllers:
                addresses = controller.storage.foreign(base, blocks)
                if addresses.size:
                    if readback is None:
                        readback = blocks.copy()
                    readback[addresses - base] = controller.storage.gather(addresses)
            if readback is None:
                degraded[name] = region.array.view()
                degraded[name].flags.writeable = False
            else:
                degraded[name] = blocks_to_array(
                    readback, region.array.dtype, region.array.shape,
                    block_size=self.config.block_size_bytes,
                )
        return degraded

    @staticmethod
    def _region_fidelity(
        input_regions: dict[str, Region],
        degraded: dict[str, np.ndarray],
    ) -> dict[str, float]:
        """Statistical fidelity panel over the degraded approximable inputs.

        Compares what the lossy path stored against the exact data, region
        by region, and keeps the worst case (min Pearson, max KS/IQR) —
        the data-level complement of the output-level application error,
        computed for every workload including ingested traces whose kernel
        is not re-runnable.  Non-approximable regions are exempt from the
        lossy path by construction and excluded.
        """
        exact = {
            name: region.array
            for name, region in input_regions.items()
            if region.approximable
        }
        if not exact:
            return {}
        return fidelity_summary(exact, {name: degraded[name] for name in exact})

    def _assemble_result(
        self,
        workload: Workload,
        backend: CompressionBackend,
        all_regions: dict[str, Region],
        controllers: list[MemoryController],
        l2: SetAssociativeCache,
        error_percent: float,
        fidelity: dict[str, float] | None = None,
    ) -> SimulationResult:
        read_bursts = sum(c.stats.read_bursts for c in controllers)
        write_bursts = sum(c.stats.write_bursts for c in controllers)
        total_bursts = read_bursts + write_bursts
        dram_bytes = total_bursts * self.config.mag_bytes
        row_misses = sum(c.channel.stats.row_misses for c in controllers)
        lossy_blocks = sum(c.stats.lossy_blocks for c in controllers)
        stored_blocks = sum(c.stored_blocks for c in controllers)
        compress_ops = sum(c.stats.compress_invocations for c in controllers)
        decompress_ops = sum(c.stats.decompress_invocations for c in controllers)
        mdc_hit_rates = [c.mdc.stats.hit_rate for c in controllers if c.mdc.stats.accesses]
        mdc_hit_rate = float(np.mean(mdc_hit_rates)) if mdc_hit_rates else 1.0

        compute_ops = workload.compute_ops(all_regions)
        compute_cycles = self.sm_cluster.compute_cycles(compute_ops)
        compute_time = compute_cycles / self.config.core_clock_hz

        busiest_channel = max(c.busy_memory_cycles for c in controllers)
        memory_time = busiest_channel / self.config.memory_clock_hz

        latency_cfg = self.config.latency
        reads = sum(c.stats.reads for c in controllers)
        writes = sum(c.stats.writes for c in controllers)
        exposed_cycles = latency_cfg.exposed_latency_fraction * (
            reads * backend.decompress_latency_cycles
            + writes * backend.compress_latency_cycles
        ) / max(1, len(controllers))
        exposed_time = exposed_cycles / self.config.memory_clock_hz

        exec_time = (
            max(compute_time, memory_time)
            + self.overlap_penalty * min(compute_time, memory_time)
            + exposed_time
        )

        energy = self.energy_model.evaluate(
            exec_time_s=exec_time,
            compute_ops=compute_ops,
            l2_accesses=l2.stats.accesses,
            dram_bursts=total_bursts,
            dram_row_misses=row_misses,
            compressed_blocks=compress_ops,
            decompressed_blocks=decompress_ops,
            mag_bytes=self.config.mag_bytes,
        )

        extra_metrics = {
            "mdc_extra_bursts": sum(c.stats.mdc_extra_bursts for c in controllers),
            # final stored footprint in bits; with the uncompressed footprint
            # (stored_blocks * block bits) this yields the raw compression
            # ratio of a run without re-walking the storage
            "stored_bits": sum(
                int(controller.storage.entries["stored_bits"].sum())
                for controller in controllers
            ),
        }
        if fidelity:
            extra_metrics.update(fidelity)
        if self.payload_digest:
            extra_metrics["payload_sha256"] = self._payload_digest(controllers)

        if metrics.enabled():
            metrics.inc("sim.runs")
            metrics.inc("sim.stored_blocks", stored_blocks)
            metrics.inc("sim.lossy_blocks", lossy_blocks)
            metrics.inc("sim.total_bursts", total_bursts)
            metrics.inc("sim.dram_bytes", dram_bytes)
            metrics.observe("sim.l2_hit_rate", l2.stats.hit_rate)
            metrics.observe("sim.mdc_hit_rate", mdc_hit_rate)

        return SimulationResult(
            workload=workload.name,
            backend=backend.name,
            exec_time_s=exec_time,
            compute_time_s=compute_time,
            memory_time_s=memory_time,
            exposed_latency_s=exposed_time,
            compute_ops=compute_ops,
            total_bursts=total_bursts,
            read_bursts=read_bursts,
            write_bursts=write_bursts,
            dram_bytes=dram_bytes,
            dram_row_misses=row_misses,
            l2_accesses=l2.stats.accesses,
            l2_hit_rate=l2.stats.hit_rate,
            stored_blocks=stored_blocks,
            lossy_blocks=lossy_blocks,
            error_percent=error_percent,
            energy=energy,
            mdc_hit_rate=mdc_hit_rate,
            extra_metrics=extra_metrics,
        )

    @staticmethod
    def _payload_digest(controllers: list[MemoryController]) -> str:
        """SHA-256 over the final stored state of every block, address-ordered.

        Hashes address, burst count, stored bits, lossy flag and the stored
        (possibly degraded) data bytes, so two runs agree iff their payload
        codecs produced identical storage.
        """
        entries = [
            (address, controller.storage)
            for controller in controllers
            for address in controller.storage.entries["address"].tolist()
        ]
        digest = hashlib.sha256()
        for address, storage in sorted(entries, key=lambda item: item[0]):
            stored = storage.block(address)
            digest.update(
                f"{address}:{stored.bursts}:{stored.stored_bits}:"
                f"{int(stored.lossy)}:".encode()
            )
            digest.update(stored.data)
        return digest.hexdigest()
