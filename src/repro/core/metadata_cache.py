"""Metadata cache (MDC) holding per-block burst counts.

The memory controller must know how many MAG-sized bursts to fetch for each
compressed block *before* reading it from DRAM.  As in the paper (and the
prior work it follows), a small metadata cache in the memory controller stores
a 2-bit entry per block encoding 1–4 bursts; on an MDC miss the controller
conservatively fetches the full uncompressed block and refills the entry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass
class MDCStats:
    """Hit/miss counters of the metadata cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    updates: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit rate over all lookups (1.0 when there were no lookups)."""
        if not self.accesses:
            return 1.0
        return self.hits / self.accesses


@dataclass
class MetadataCache:
    """Fully-associative LRU cache of 2-bit burst-count entries.

    Args:
        capacity_entries: number of block entries the MDC can hold.  The
            default (8192 entries ≈ 2 KiB of 2-bit entries per memory
            controller) follows the sizing of the prior work the paper cites.
        max_bursts: largest representable burst count (4 ⇒ 2-bit entries).
    """

    capacity_entries: int = 8192
    max_bursts: int = 4
    stats: MDCStats = field(default_factory=MDCStats)
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_entries <= 0:
            raise ValueError("MDC capacity must be positive")
        if self.max_bursts <= 0:
            raise ValueError("max_bursts must be positive")

    @property
    def entry_bits(self) -> int:
        """Bits per entry (2 bits encode burst counts 1..4)."""
        return max(1, (self.max_bursts - 1).bit_length())

    @property
    def size_bytes(self) -> float:
        """Total MDC storage in bytes."""
        return self.capacity_entries * self.entry_bits / 8.0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, block_address: int) -> int | None:
        """Return the stored burst count for ``block_address`` or ``None`` on a miss."""
        if block_address in self._entries:
            self._entries.move_to_end(block_address)
            self.stats.hits += 1
            return self._entries[block_address]
        self.stats.misses += 1
        return None

    def update(self, block_address: int, bursts: int) -> None:
        """Record the burst count of a block (on writeback or MDC refill)."""
        if not 1 <= bursts <= self.max_bursts:
            raise ValueError(
                f"burst count must be 1..{self.max_bursts}, got {bursts}"
            )
        if block_address not in self._entries and len(self._entries) >= self.capacity_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[block_address] = bursts
        self._entries.move_to_end(block_address)
        self.stats.updates += 1

    def update_many(self, block_addresses, bursts) -> None:
        """:meth:`update` every ``(address, bursts)`` pair, in order.

        A stream of distinct addresses none of which is resident — a
        host-to-device copy — is applied in one step: the entries end up as
        the most recent ``capacity_entries`` of the old entries followed by
        the new ones, and every insertion into a full cache counts one
        eviction.  Any other stream goes through :meth:`update` per pair.
        """
        addresses = [int(a) for a in block_addresses]
        values = [int(b) for b in bursts]
        fresh = len(set(addresses)) == len(addresses) and not any(
            address in self._entries for address in addresses
        )
        if not fresh:
            for address, value in zip(addresses, values):
                self.update(address, value)
            return
        if values and not 1 <= min(values) <= max(values) <= self.max_bursts:
            raise ValueError(f"burst count must be 1..{self.max_bursts}")
        evictions = max(0, len(self._entries) + len(addresses) - self.capacity_entries)
        evicted_old = min(evictions, len(self._entries))
        for _ in range(evicted_old):
            self._entries.popitem(last=False)
        skip = evictions - evicted_old
        self._entries.update(zip(addresses[skip:], values[skip:]))
        self.stats.evictions += evictions
        self.stats.updates += len(addresses)

    def bursts_to_fetch(self, block_address: int) -> int:
        """Burst count to use for a read: the MDC entry, or the worst case on a miss."""
        stored = self.lookup(block_address)
        if stored is None:
            return self.max_bursts
        return stored

    def flush(self) -> None:
        """Drop all entries (keeps statistics)."""
        self._entries.clear()
