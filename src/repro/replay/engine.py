"""The vectorized trace-replay engine.

Reproduces the scalar kernel-execution loop of ``GPUSimulator.run`` —
per-access L2 lookups, per-miss memory-controller method chains — as a
handful of array passes, bit-exact on every counter the simulation result is
assembled from:

1. the trace is compiled to flat address/write/count arrays
   (:meth:`~repro.gpu.trace.MemoryTrace.compile`),
2. the L2 resolves all hits at once (:func:`~repro.replay.l2.replay_l2`)
   yielding the miss stream in trace order,
3. write misses go through the backend's batched analysis kernels *and*
   batched payload codec (``store_batch``: vectorized Fig. 4 decision plus
   one truncation/prediction pass producing the degraded bytes of the lossy
   blocks, see :mod:`repro.kernels.codec`), grouped by the region's
   ``approximable`` flag,
4. the miss stream is partitioned per memory controller
   (``CHANNEL_INTERLEAVE_BLOCKS`` interleave) and each controller's events
   run through a vectorized storage-timeline forward fill (the burst count a
   read fetches is the one recorded by the latest preceding store), the MDC
   model (:func:`~repro.replay.mdc.replay_mdc`) and the grouped DRAM
   row-buffer scan (:func:`~repro.replay.dram.replay_dram`); the storage
   timeline is seeded from and written back to the controller's
   address-indexed :class:`~repro.gpu.memory_controller.BlockStore`.

The mutated objects (L2, controllers, their MDCs, channels and block
stores, and the backend's own counters) end up in the same state the scalar
loop leaves them in, so result assembly and the degraded-input error
computation are unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.memory_controller import MemoryController
from repro.gpu.trace import MemoryTrace
from repro.obs import metrics
from repro.obs.tracing import span
from repro.replay.dram import replay_dram
from repro.replay.l2 import replay_l2
from repro.replay.mdc import replay_mdc
from repro.workloads.base import Region


def replay_trace(
    trace: MemoryTrace,
    *,
    all_regions: dict[str, Region],
    region_blocks: dict[str, np.ndarray],
    base_addresses: dict[str, int],
    l2: SetAssociativeCache,
    controllers: list[MemoryController],
    interleave_blocks: int,
) -> None:
    """Replay the kernel's block trace at array speed.

    Same signature and same observable effects as
    :func:`~repro.replay.reference.replay_trace_scalar`; ``region_blocks``
    holds every region's ``(n_blocks, block_size)`` block matrix.
    """
    with span("replay.compile", cat="replay"):
        compiled = trace.compile(base_addresses)
    with span("replay.l2", cat="replay", accesses=int(compiled.addresses.shape[0])):
        miss_mask = replay_l2(
            l2, compiled.addresses, compiled.is_write, compiled.counts
        )
    if metrics.enabled():
        metrics.inc("replay.accesses", int(compiled.counts.sum()))
        metrics.inc("replay.l2_misses", int(miss_mask.sum()))
    if not miss_mask.any():
        return

    miss_addr = compiled.addresses[miss_mask]
    miss_write = compiled.is_write[miss_mask]
    miss_region = compiled.region_index[miss_mask]
    miss_block = compiled.block_index[miss_mask]
    n_miss = miss_addr.shape[0]
    backend = controllers[0].backend

    # ------------------------------------------------------------------ #
    # write misses: batched compression decisions + batched payload codec,
    # grouped by approximable flag (per-block results and the backend's own
    # counters are identical to per-miss ``store`` calls; only the call
    # grouping differs).  Each miss records where its data lives: its own
    # region's block matrix, or the degraded rows of its batch.
    region_names = compiled.regions
    sources = [region_blocks[name] for name in region_names]
    miss_source = miss_region.astype(np.int64)
    miss_row = miss_block.astype(np.int64)
    miss_bursts = np.zeros(n_miss, dtype=np.int64)
    miss_bits = np.zeros(n_miss, dtype=np.int64)
    miss_lossy = np.zeros(n_miss, dtype=np.bool_)
    write_indices = np.nonzero(miss_write)[0]
    if write_indices.size:
        with span("replay.store_batch", cat="replay",
                  writes=int(write_indices.size)):
            approximable = np.fromiter(
                (all_regions[name].approximable for name in region_names),
                np.bool_,
                len(region_names),
            )
            write_approx = approximable[miss_region[write_indices]]
            for flag in (True, False):
                selected = write_indices[write_approx == flag]
                if not selected.size:
                    continue
                batch = backend.store_batch(
                    _gather_rows(sources, miss_region[selected], miss_block[selected]),
                    approximable=flag,
                )
                miss_bursts[selected] = batch.bursts
                miss_bits[selected] = batch.stored_bits
                miss_lossy[selected] = batch.lossy
                lossy = selected[batch.lossy]
                miss_source[lossy] = len(sources)
                miss_row[lossy] = np.arange(lossy.shape[0])
                sources.append(batch.degraded)

    # ------------------------------------------------------------------ #
    # per-controller miss-path accounting
    with span("replay.controllers", cat="replay", misses=n_miss):
        controller_index = (miss_addr // interleave_blocks) % len(controllers)
        by_controller = np.argsort(controller_index, kind="stable")
        counts = np.bincount(controller_index, minlength=len(controllers))
        offsets = np.cumsum(counts) - counts
        for c, controller in enumerate(controllers):
            if not counts[c]:
                continue
            events = by_controller[offsets[c] : offsets[c] + counts[c]]
            final = _replay_controller(
                controller,
                addresses=miss_addr[events],
                is_write=miss_write[events],
                stored_bursts=miss_bursts[events],
                stored_lossy=miss_lossy[events],
            )
            # Storage ends up holding each written address's final store.
            stores = events[final]
            store_source = miss_source[stores]
            for source in np.unique(store_source).tolist():
                chosen = stores[store_source == source]
                controller.storage.put(
                    miss_addr[chosen], miss_bursts[chosen], miss_bits[chosen],
                    miss_lossy[chosen], sources[source], miss_row[chosen],
                )


def _gather_rows(
    sources: list[np.ndarray], region_index: np.ndarray, block_index: np.ndarray
) -> np.ndarray:
    """Rows ``block_index`` of the block matrices ``sources[region_index]``."""
    width = sources[0].shape[1]
    rows = np.empty((region_index.shape[0], width), np.uint8)
    for region in np.unique(region_index).tolist():
        chosen = region_index == region
        rows[chosen] = sources[region][block_index[chosen]]
    return rows


def _replay_controller(
    controller: MemoryController,
    *,
    addresses: np.ndarray,
    is_write: np.ndarray,
    stored_bursts: np.ndarray,
    stored_lossy: np.ndarray,
) -> np.ndarray:
    """Account one controller's miss events (in service order).

    Returns the indices of the events whose store is the last one to their
    address — the stores the controller's storage must end up holding.
    """
    n = addresses.shape[0]
    is_read = ~is_write
    backend_max = controller.backend.max_bursts

    # Storage timeline: the burst count a read fetches is the one recorded
    # by the latest preceding store of that address — seeded from the
    # controller's block store (host-to-device copies), advanced by write
    # misses.  Computed as a per-address forward fill over events sorted by
    # (address, time).
    unique = np.unique(addresses)
    initial_bursts = controller.storage.stored_bursts(unique, default=backend_max)
    by_address = np.argsort(addresses, kind="stable")
    sorted_addresses = addresses[by_address]
    sorted_writes = is_write[by_address]
    sorted_bursts = stored_bursts[by_address]
    group = np.searchsorted(unique, sorted_addresses)
    group_start = np.searchsorted(sorted_addresses, unique)
    last_store = np.maximum.accumulate(
        np.where(sorted_writes, np.arange(n), -1)
    )
    stored_before = last_store >= group_start[group]
    sorted_actual = np.where(
        stored_before,
        sorted_bursts[np.maximum(last_store, 0)],
        initial_bursts[group],
    )
    actual = np.empty(n, dtype=np.int64)
    actual[by_address] = sorted_actual

    # MDC: reads do a lookup (miss -> conservative worst-case fetch), every
    # event refreshes the entry with the current burst count.
    values = np.where(is_write, stored_bursts, actual)
    mdc_hit = replay_mdc(controller.mdc, addresses, is_read, values)
    fetched = np.where(
        is_write,
        stored_bursts,
        np.where(mdc_hit, actual, controller.mdc.max_bursts),
    )

    stats = controller.stats
    n_reads = int(is_read.sum())
    n_writes = n - n_reads
    stats.reads += n_reads
    stats.writes += n_writes
    stats.read_bursts += int(fetched[is_read].sum())
    stats.write_bursts += int(stored_bursts[is_write].sum())
    stats.decompress_invocations += n_reads
    stats.compress_invocations += n_writes
    stats.mdc_extra_bursts += int((fetched[is_read] - actual[is_read]).sum())
    stats.lossy_blocks += int(np.count_nonzero(stored_lossy & is_write))

    replay_dram(
        controller.channel,
        addresses * controller.block_size_bytes,
        fetched,
    )

    group_end = group_start + np.diff(np.append(group_start, n)) - 1
    final_store = last_store[group_end]
    return by_address[final_store[final_store >= group_start]]
