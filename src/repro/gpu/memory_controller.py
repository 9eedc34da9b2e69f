"""Memory controller with integrated (de)compressor and metadata cache.

As in Fig. 3 of the paper, the compressor, decompressor and metadata cache
(MDC) live in the memory controller.  Data travels to/from DRAM in compressed
form; the controller fetches only the number of MAG bursts recorded for the
block (falling back to the full block on an MDC miss) and decompresses on the
way to the L2.

What a controller has stored lives in a :class:`BlockStore`: one packed
entry per stored block, sorted by address, with every block's data held by
reference into a block matrix (the region it was written from, or the
degraded rows of a lossy batch) rather than as one object per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metadata_cache import MetadataCache
from repro.gpu.backends import CompressionBackend, StoredBatch, StoredBlock
from repro.gpu.dram import DRAMChannel, GDDR5Timing


@dataclass
class MemoryControllerStats:
    """Traffic counters for one memory controller."""

    reads: int = 0
    writes: int = 0
    read_bursts: int = 0
    write_bursts: int = 0
    lossy_blocks: int = 0
    mdc_extra_bursts: int = 0
    compress_invocations: int = 0
    decompress_invocations: int = 0

    @property
    def total_bursts(self) -> int:
        """Bursts moved in either direction."""
        return self.read_bursts + self.write_bursts

    @property
    def bytes_transferred(self) -> int:
        """Bytes moved over the DRAM bus (bursts × 32 B)."""
        return self.total_bursts * 32


#: one :class:`BlockStore` entry: the block's address, its stored columns
#: and where its data lives (row ``row`` of registered matrix ``source``)
STORE_ENTRY = np.dtype([
    ("address", np.int64), ("bursts", np.int16), ("stored_bits", np.int32),
    ("lossy", np.bool_), ("source", np.int32), ("row", np.int32),
])


class BlockStore:
    """Address-indexed stored state of the blocks one controller holds.

    One :data:`STORE_ENTRY` per stored block, kept sorted by address, so
    a controller pays only for the blocks interleaved onto it.  A block's
    data is held by reference: row ``row`` of the registered block matrix
    ``matrices[source]``.  Storing a region registers the region's own
    block matrix, so lossless blocks cost no copy of their bytes; a lossy
    batch registers its degraded rows; a block stored alone registers
    itself.
    """

    def __init__(self, block_size_bytes: int = 128) -> None:
        self.block_size_bytes = block_size_bytes
        #: the registered data matrices, ``(rows, block_size_bytes)`` uint8
        self.matrices: list[np.ndarray] = []
        self._matrix_ids: dict[int, int] = {}
        self._entries = np.zeros(0, STORE_ENTRY)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def entries(self) -> np.ndarray:
        """Every stored block's entry, ascending by address (a view)."""
        return self._entries[: self._size]

    def put(self, addresses, bursts, stored_bits, lossy, data: np.ndarray, rows) -> None:
        """Store the blocks at ``addresses``; block ``i`` reads ``data[rows[i]]``.

        ``addresses`` must be distinct.  ``data`` is held by reference.
        """
        update = np.zeros(len(addresses), STORE_ENTRY)
        update["address"] = addresses
        update["bursts"] = bursts
        update["stored_bits"] = stored_bits
        update["lossy"] = lossy
        update["source"] = self._matrix_id(data)
        update["row"] = rows
        self._write(update)

    def put_batch(self, addresses: np.ndarray, batch: StoredBatch, index: np.ndarray) -> None:
        """Store entries ``index`` of ``batch`` at ``addresses``.

        Lossless entries read back as their rows of ``batch.blocks`` (the
        blocks as written), lossy ones as their rows of ``batch.degraded``.
        """
        update = np.zeros(index.shape[0], STORE_ENTRY)
        update["address"] = addresses
        update["bursts"] = batch.bursts[index]
        update["stored_bits"] = batch.stored_bits[index]
        update["lossy"] = lossy = batch.lossy[index]
        update["source"] = self._matrix_id(batch.blocks)
        update["row"] = index
        if lossy.any():
            degraded_row = np.cumsum(batch.lossy) - 1
            update["source"][lossy] = self._matrix_id(batch.degraded)
            update["row"][lossy] = degraded_row[index[lossy]]
        self._write(update)

    def put_one(self, address: int, stored: StoredBlock) -> None:
        """Store one block, registering its own bytes as its data."""
        data = np.frombuffer(stored.data, np.uint8).reshape(1, -1)
        entry = (address, stored.bursts, stored.stored_bits, stored.lossy,
                 self._matrix_id(data), 0)
        index = self._index(address)
        if index is None:
            self._insert(np.array([entry], STORE_ENTRY))
        else:
            self._entries[index] = entry

    def stored_bursts(self, addresses, default: int) -> np.ndarray:
        """Stored burst count of every address, ``default`` where none is stored."""
        addresses = np.asarray(addresses, np.int64)
        index, hit = self._find(addresses)
        bursts = np.full(addresses.shape[0], default, np.int64)
        bursts[hit] = self.entries["bursts"][index[hit]]
        return bursts

    def gather(self, addresses) -> np.ndarray:
        """The stored data of ``addresses`` (all stored) as a block matrix."""
        index, _ = self._find(np.asarray(addresses, np.int64))
        sources = self.entries["source"][index]
        rows = self.entries["row"][index]
        out = np.empty((index.shape[0], self.block_size_bytes), np.uint8)
        order = np.argsort(sources, kind="stable")
        for group in np.split(order, np.flatnonzero(np.diff(sources[order])) + 1):
            if group.size:
                out[group] = self.matrices[sources[group[0]]][rows[group]]
        return out

    def foreign(self, base: int, blocks: np.ndarray) -> np.ndarray:
        """Stored addresses of ``[base, base + len(blocks))`` not reading as ``blocks``.

        An address whose data is its own row of ``blocks`` (the region
        matrix it was stored from) is left out; every other stored address
        of the range — degraded, or stored from another matrix — is listed.
        """
        stored = self.entries["address"]
        start, stop = np.searchsorted(stored, [base, base + blocks.shape[0]])
        entries = self.entries[start:stop]
        own = self._matrix_ids.get(id(blocks), -1)
        aligned = (entries["source"] == own) & (entries["row"] == entries["address"] - base)
        return entries["address"][~aligned]

    def block(self, address: int) -> StoredBlock | None:
        """The n = 1 view of one address (``None`` when nothing is stored)."""
        index = self._index(address)
        if index is None:
            return None
        _, bursts, stored_bits, lossy, source, row = self._entries[index].tolist()
        return StoredBlock(
            bursts, stored_bits, self.matrices[source][row].tobytes(), lossy
        )

    def _write(self, update: np.ndarray) -> None:
        """Replace the entries of stored addresses, insert the others."""
        index, hit = self._find(update["address"])
        self._entries[index[hit]] = update[hit]
        self._insert(update[~hit])

    def _insert(self, update: np.ndarray) -> None:
        """Add entries for addresses not stored yet, keeping address order."""
        if not update.size:
            return
        if np.any(update["address"][1:] < update["address"][:-1]):
            update = update[np.argsort(update["address"], kind="stable")]
        size, grown = self._size, self._size + update.shape[0]
        if size and update["address"][0] < self._entries["address"][size - 1]:
            # an insert below the top address (rare: stores mostly arrive
            # in address order) shifts the entries above it
            positions = np.searchsorted(self.entries["address"], update["address"])
            self._entries = np.insert(self.entries, positions, update)
        else:
            if grown > self._entries.shape[0]:
                entries = np.zeros(max(grown, 2 * self._entries.shape[0]), STORE_ENTRY)
                entries[:size] = self.entries
                self._entries = entries
            self._entries[size:grown] = update
        self._size = grown

    def _find(self, addresses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(entry index, whether stored) of every address."""
        stored = self.entries["address"]
        index = np.searchsorted(stored, addresses)
        hit = index < stored.shape[0]
        hit[hit] = stored[index[hit]] == addresses[hit]
        return index, hit

    def _index(self, address: int) -> int | None:
        stored = self._entries["address"][: self._size]
        index = int(stored.searchsorted(address))
        return index if index < self._size and stored[index] == address else None

    def _matrix_id(self, matrix: np.ndarray) -> int:
        index = self._matrix_ids.get(id(matrix))
        if index is None:
            index = self._matrix_ids[id(matrix)] = len(self.matrices)
            self.matrices.append(matrix)
        return index


class MemoryController:
    """One memory partition: compression backend + MDC + GDDR5 channel."""

    def __init__(
        self,
        controller_id: int,
        backend: CompressionBackend,
        mag_bytes: int = 32,
        block_size_bytes: int = 128,
        mdc_entries: int = 8192,
        timing: GDDR5Timing | None = None,
    ) -> None:
        self.controller_id = controller_id
        self.backend = backend
        self.mag_bytes = mag_bytes
        self.block_size_bytes = block_size_bytes
        self.mdc = MetadataCache(
            capacity_entries=mdc_entries,
            max_bursts=max(block_size_bytes // mag_bytes, backend.max_bursts),
        )
        self.channel = DRAMChannel(timing=timing, mag_bytes=mag_bytes)
        self.stats = MemoryControllerStats()
        self.storage = BlockStore(block_size_bytes)

    # ------------------------------------------------------------------ #
    # stores (host copies and kernel writebacks)

    def store_block(
        self,
        block_address: int,
        block: bytes,
        approximable: bool = True,
        count_traffic: bool = True,
    ) -> StoredBlock:
        """Compress and store a block.

        Args:
            block_address: global block address.
            block: raw block contents.
            approximable: whether the block's region is safe to approximate.
            count_traffic: whether to charge write bursts and DRAM busy time
                (host-to-device copies before the kernel are not charged).
        """
        stored = self.backend.store(block, approximable=approximable)
        return self.record_stored(block_address, stored, count_traffic=count_traffic)

    def record_stored(
        self,
        block_address: int,
        stored: StoredBlock,
        count_traffic: bool = True,
    ) -> StoredBlock:
        """Book-keep a block whose compression was already decided.

        The n = 1 form of :meth:`record_stored_batch`; the accounting is
        identical to :meth:`store_block`.
        """
        self.storage.put_one(block_address, stored)
        self.mdc.update(block_address, stored.bursts)
        self.stats.compress_invocations += 1
        if stored.lossy:
            self.stats.lossy_blocks += 1
        if count_traffic:
            self.stats.writes += 1
            self.stats.write_bursts += stored.bursts
            self.channel.service(block_address * self.block_size_bytes, stored.bursts)
        return stored

    def record_stored_batch(
        self,
        addresses: np.ndarray,
        batch: StoredBatch,
        index: np.ndarray,
    ) -> None:
        """Book-keep entries ``index`` of ``batch`` stored at ``addresses``.

        The host-to-device form of :meth:`record_stored` (no write traffic
        is charged), in address order: each entry lands in the block store
        and refreshes its MDC entry exactly as per-block calls would.
        Lossless entries keep referencing ``batch.blocks``.
        """
        self.storage.put_batch(addresses, batch, index)
        self.mdc.update_many(addresses.tolist(), batch.bursts[index].tolist())
        self.stats.compress_invocations += int(index.shape[0])
        self.stats.lossy_blocks += int(np.count_nonzero(batch.lossy[index]))

    # ------------------------------------------------------------------ #
    # loads (L2 misses)

    def read_block(self, block_address: int) -> bytes:
        """Serve an L2 miss: fetch the recorded bursts and decompress.

        Blocks never written through this controller (e.g. constant data that
        the trace touches without a prior store) are treated as uncompressed.
        """
        stored = self.storage.block(block_address)
        mdc_bursts = self.mdc.bursts_to_fetch(block_address)
        if stored is None:
            actual_bursts = self.backend.max_bursts
            data = bytes(self.block_size_bytes)
        else:
            actual_bursts = stored.bursts
            data = stored.data
        # On an MDC miss the controller conservatively fetches the worst case.
        bursts = max(actual_bursts, mdc_bursts) if mdc_bursts else actual_bursts
        self.stats.mdc_extra_bursts += max(0, bursts - actual_bursts)
        self.mdc.update(block_address, actual_bursts)

        self.stats.reads += 1
        self.stats.read_bursts += bursts
        self.stats.decompress_invocations += 1
        self.channel.service(block_address * self.block_size_bytes, bursts)
        return data

    # ------------------------------------------------------------------ #
    # queries

    def stored_data(self, block_address: int) -> bytes | None:
        """The data currently stored for a block (possibly degraded), if any."""
        stored = self.storage.block(block_address)
        return stored.data if stored is not None else None

    def stored_items(self) -> "list[tuple[int, StoredBlock]]":
        """Every stored block with its address, ascending (for inspection)."""
        return [
            (address, self.storage.block(address))
            for address in self.storage.entries["address"].tolist()
        ]

    @property
    def busy_memory_cycles(self) -> int:
        """DRAM-channel busy time in memory-clock cycles."""
        return self.channel.busy_cycles

    @property
    def stored_blocks(self) -> int:
        """Number of distinct blocks stored through this controller."""
        return len(self.storage)
