"""The scalar trace-replay loop, kept as the n = 1 reference.

This is the loop that used to live inline in ``GPUSimulator.run``: one L2
lookup per access, one memory-controller method chain per miss.  It defines
the semantics the vectorized engine (:mod:`repro.replay.engine`) must
reproduce bit-exactly, and is the replay phase of the all-scalar reference
oracle, ``GPUSimulator(reference=True)``, for audits and benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.memory_controller import MemoryController
from repro.gpu.trace import MemoryTrace
from repro.workloads.base import Region


def replay_trace_scalar(
    trace: MemoryTrace,
    *,
    all_regions: dict[str, Region],
    region_blocks: dict[str, np.ndarray],
    base_addresses: dict[str, int],
    l2: SetAssociativeCache,
    controllers: list[MemoryController],
    interleave_blocks: int,
) -> None:
    """Replay the kernel's block trace through the L2, one access at a time.

    Args:
        trace: the workload's block-granular memory trace.
        all_regions: every region the trace references.
        region_blocks: per-region ``(n_blocks, block_size)`` block matrices.
        base_addresses: global base block address of every region.
        l2: the shared L2 cache.
        controllers: the memory controllers (block addresses interleave
            across them in groups of ``interleave_blocks``).
        interleave_blocks: consecutive blocks kept on one controller.
    """
    num_controllers = len(controllers)
    for access in trace:
        region = all_regions[access.region]
        address = base_addresses[access.region] + access.block_index
        for _ in range(access.count):
            hit = l2.access(address, is_write=access.is_write)
            if hit:
                continue
            controller = controllers[(address // interleave_blocks) % num_controllers]
            if access.is_write:
                block = region_blocks[access.region][access.block_index]
                controller.store_block(
                    address,
                    block.tobytes(),
                    approximable=region.approximable,
                    count_traffic=True,
                )
            else:
                controller.read_block(address)
