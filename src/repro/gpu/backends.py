"""Compression backends pluggable into the memory controller.

The memory controller does not care whether blocks are stored raw, losslessly
compressed or selectively-lossily compressed; it only needs, per block, the
number of MAG bursts to fetch, the bits actually stored and the data that a
subsequent read returns.  A :class:`CompressionBackend` provides exactly that,
one block at a time (:meth:`~CompressionBackend.store`, the n = 1 reference)
or for a whole block matrix at once (:meth:`~CompressionBackend.store_batch`,
a :class:`StoredBatch` of per-block columns), for three families:

* :class:`NoCompressionBackend` — the uncompressed baseline,
* :class:`LosslessBackend` — any :class:`~repro.compression.base.BlockCompressor`
  (BDI, FPC, C-PACK, E2MC, BPC) with MAG-aware burst accounting,
* :class:`SLCBackend` — the paper's selective lossy compression.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.compression.base import BlockCompressor, as_block_bytes
from repro.compression.registry import scheme_latency
from repro.compression.stats import bursts_for_size
from repro.core.config import SLCMode
from repro.core.slc import SLCCompressor
from repro.obs import metrics
from repro.utils.blocks import as_block_matrix

#: blocks per kernel pass of :meth:`SLCBackend.store_batch`; bounds
#: the analysis and payload-codec intermediates whatever the region size
STORE_SLICE_ROWS = 32768


@dataclass(frozen=True)
class StoredBlock:
    """What the memory controller records about one stored block."""

    #: MAG bursts needed to read the block back
    bursts: int
    #: bits actually stored (compressed payload + header)
    stored_bits: int
    #: the data a read of this block returns (may be degraded for lossy blocks)
    data: bytes
    #: whether symbols were approximated
    lossy: bool = False


@dataclass(frozen=True, eq=False)
class StoredBatch:
    """Struct-of-arrays result of :meth:`CompressionBackend.store_batch`.

    Entry ``i`` of every column describes block ``i`` of the batch.  Only
    lossy blocks carry data of their own (:attr:`degraded`); every other
    block reads back exactly as written.  Iterating yields the n = 1 view:
    one :class:`StoredBlock` per block, equal to what
    :meth:`CompressionBackend.store` returns for it.
    """

    #: MAG bursts needed to read each block back (int64)
    bursts: np.ndarray
    #: bits actually stored per block (int64)
    stored_bits: np.ndarray
    #: whether each block's symbols were approximated (bool)
    lossy: np.ndarray
    #: ``(lossy.sum(), block_size)`` uint8: what reads of the lossy blocks
    #: return, in block order
    degraded: np.ndarray
    #: ``(n, block_size)`` uint8: the blocks as written
    blocks: np.ndarray

    def __len__(self) -> int:
        return int(self.bursts.shape[0])

    def __iter__(self):
        degraded = iter(self.degraded)
        for block, bursts, stored_bits, lossy in zip(
            self.blocks, self.bursts.tolist(), self.stored_bits.tolist(),
            self.lossy.tolist(),
        ):
            data = next(degraded) if lossy else block
            yield StoredBlock(bursts, stored_bits, data.tobytes(), lossy)


def _columns(stored: list[StoredBlock], block_size_bytes: int) -> tuple:
    """``(bursts, stored_bits, lossy, degraded)`` columns of per-block results."""
    n = len(stored)
    degraded = [np.frombuffer(block.data, np.uint8) for block in stored if block.lossy]
    return (
        np.fromiter((block.bursts for block in stored), np.int64, n),
        np.fromiter((block.stored_bits for block in stored), np.int64, n),
        np.fromiter((block.lossy for block in stored), np.bool_, n),
        np.stack(degraded) if degraded else np.zeros((0, block_size_bytes), np.uint8),
    )


class CompressionBackend(ABC):
    """Interface between the memory controller and a compression scheme."""

    name: str = "abstract"

    def __init__(self, block_size_bytes: int = 128, mag_bytes: int = 32) -> None:
        self.block_size_bytes = block_size_bytes
        self.mag_bytes = mag_bytes

    @property
    def max_bursts(self) -> int:
        """Bursts for an uncompressed block."""
        return self.block_size_bytes // self.mag_bytes

    def train(self, blocks: list[bytes]) -> None:  # noqa: B027 - optional hook
        """Adapt any probability model to sample data (E2MC / SLC only)."""

    @abstractmethod
    def store(self, block: bytes, approximable: bool = True) -> StoredBlock:
        """Decide how a block is stored and what a read of it returns."""

    def store_batch(self, blocks, approximable: bool = True) -> StoredBatch:
        """Batched :meth:`store` over a block matrix (or a list of blocks).

        Every block's entry equals what :meth:`store` returns for it, and
        the backend's own counters advance exactly as per-block calls would
        advance them.  The default calls :meth:`store` per block; backends
        with vectorized kernels override it.
        """
        matrix = as_block_matrix(blocks, self.block_size_bytes)
        stored = [self.store(row.tobytes(), approximable=approximable) for row in matrix]
        return StoredBatch(*_columns(stored, self.block_size_bytes), blocks=matrix)

    @property
    def compress_latency_cycles(self) -> int:
        """Compression latency in memory-controller cycles."""
        return 0

    @property
    def decompress_latency_cycles(self) -> int:
        """Decompression latency in memory-controller cycles."""
        return 0


class NoCompressionBackend(CompressionBackend):
    """Baseline: every block is stored raw and costs the full burst count."""

    name = "uncompressed"

    def store(self, block: bytes, approximable: bool = True) -> StoredBlock:
        return StoredBlock(
            bursts=self.max_bursts,
            stored_bits=self.block_size_bytes * 8,
            data=as_block_bytes(block),
            lossy=False,
        )


#: latency fallback for compressors that are not in the registry (custom /
#: test compressors): the E2MC figures this class used to hard-code
_FALLBACK_LATENCY = (46, 20)


class LosslessBackend(CompressionBackend):
    """MAG-aware storage through any lossless block compressor.

    Latencies default to the per-scheme figures the compression registry
    carries (:func:`repro.compression.registry.scheme_latency`); explicit
    ``compress_cycles``/``decompress_cycles`` arguments override them.
    """

    def __init__(
        self,
        compressor: BlockCompressor,
        mag_bytes: int = 32,
        compress_cycles: int | None = None,
        decompress_cycles: int | None = None,
    ) -> None:
        super().__init__(compressor.block_size_bytes, mag_bytes)
        self.compressor = compressor
        self.name = compressor.name
        if compress_cycles is None or decompress_cycles is None:
            try:
                default_compress, default_decompress = scheme_latency(compressor.name)
            except KeyError:
                default_compress, default_decompress = _FALLBACK_LATENCY
            if compress_cycles is None:
                compress_cycles = default_compress
            if decompress_cycles is None:
                decompress_cycles = default_decompress
        self._compress_cycles = int(compress_cycles)
        self._decompress_cycles = int(decompress_cycles)

    def train(self, blocks: list[bytes]) -> None:
        self.compressor.train(blocks)

    def store(self, block: bytes, approximable: bool = True) -> StoredBlock:
        compressed = self.compressor.compress(block)
        return self._stored(block, compressed.compressed_size_bits)

    def store_batch(self, blocks, approximable: bool = True) -> StoredBatch:
        """Batched stores through the compressor's batched size analysis.

        Every :class:`~repro.compression.base.BlockCompressor` provides
        ``analyze_batch`` — vectorized kernels for the registry schemes
        (E2MC's LUT gather, :mod:`repro.kernels.lossless` for BDI, FPC,
        C-Pack and BPC), the bit-exact scalar fallback loop for anything
        else — so the dispatch needs no per-scheme special case and matches
        :meth:`store` exactly.
        """
        matrix = as_block_matrix(blocks, self.block_size_bytes)
        size_bits = np.asarray(self.compressor.analyze_batch(matrix), dtype=np.int64)
        stored_bytes = np.minimum((size_bits + 7) // 8, self.block_size_bytes)
        bursts = np.minimum(
            self.max_bursts, np.maximum(1, -(-stored_bytes // self.mag_bytes))
        )
        if metrics.enabled():
            metrics.inc("backend.blocks_compressed", int(size_bits.shape[0]))
            metrics.inc("codec.stored_bits", int(size_bits.sum()))
        return StoredBatch(
            bursts=bursts,
            stored_bits=size_bits,
            lossy=np.zeros(size_bits.shape[0], np.bool_),
            degraded=np.zeros((0, self.block_size_bytes), np.uint8),
            blocks=matrix,
        )

    def _stored(self, block: bytes, size_bits: int) -> StoredBlock:
        stored_bytes = min((size_bits + 7) // 8, self.block_size_bytes)
        bursts = min(self.max_bursts, bursts_for_size(stored_bytes, self.mag_bytes))
        if metrics.enabled():
            metrics.inc("backend.blocks_compressed")
            metrics.inc("codec.stored_bits", size_bits)
        return StoredBlock(
            bursts=bursts,
            stored_bits=size_bits,
            data=as_block_bytes(block),
            lossy=False,
        )

    @property
    def compress_latency_cycles(self) -> int:
        return self._compress_cycles

    @property
    def decompress_latency_cycles(self) -> int:
        return self._decompress_cycles


class SLCBackend(CompressionBackend):
    """Selective lossy compression (the paper's contribution).

    Args:
        slc: the configured (and later trained) :class:`SLCCompressor`.
        compress_cycles: compression latency in controller cycles.
        decompress_cycles: decompression latency in controller cycles.
        batch_codec: materialize the degraded bytes of batched stores with
            the vectorized payload codec (:mod:`repro.kernels.codec`) instead
            of per-block :meth:`SLCCompressor.apply_decision` calls.  Results
            are identical either way; the codec microbenchmark flips this off
            to measure the scalar payload path.
    """

    def __init__(
        self,
        slc: SLCCompressor,
        compress_cycles: int = 60,
        decompress_cycles: int = 20,
        batch_codec: bool = True,
    ) -> None:
        super().__init__(slc.config.block_size_bytes, slc.config.mag_bytes)
        self.slc = slc
        self.name = f"slc-{slc.config.variant.value}"
        self._compress_cycles = compress_cycles
        self._decompress_cycles = decompress_cycles
        self.batch_codec = batch_codec
        self.lossy_blocks = 0
        self.total_blocks = 0
        self.total_overshoot_bits = 0

    def train(self, blocks: list[bytes]) -> None:
        self.slc.train(blocks)

    def store(self, block: bytes, approximable: bool = True) -> StoredBlock:
        decision = self.slc.analyze(block, approximable=approximable)
        return self._record(block, decision)

    def store_batch(self, blocks, approximable: bool = True) -> StoredBatch:
        """Batched stores: vectorized Fig. 4 decision + batched payload codec.

        The blocks are processed in slices of at most
        :data:`STORE_SLICE_ROWS`, so the kernels' intermediates stay
        bounded whatever the region size; the slices' columns are
        concatenated.
        """
        matrix = as_block_matrix(blocks, self.block_size_bytes)
        parts = [
            self._store_slice(matrix[start:start + STORE_SLICE_ROWS], approximable)
            for start in range(0, matrix.shape[0], STORE_SLICE_ROWS)
        ]
        if len(parts) == 1:
            columns = parts[0]
        elif parts:
            columns = [np.concatenate(column) for column in zip(*parts)]
        else:
            columns = _columns([], self.block_size_bytes)
        return StoredBatch(*columns, blocks=matrix)

    def _store_slice(self, rows: np.ndarray, approximable: bool) -> tuple:
        """``(bursts, stored_bits, lossy, degraded)`` columns of one slice.

        The decision arrays come from :meth:`SLCCompressor.analyze_batch_arrays`
        and the degraded data of the lossy blocks from one vectorized
        truncation/prediction pass, so no per-block Python codec work
        remains.  With ``batch_codec=False`` the decisions are materialized
        and each block goes through the scalar payload path instead; other
        geometries fall back to per-block :meth:`store`.
        """
        view = self.slc.symbol_view(rows)
        if view is None:
            return _columns(
                [self.store(row.tobytes(), approximable=approximable) for row in rows],
                self.block_size_bytes,
            )
        if not self.batch_codec:
            decisions = self.slc.analyze_batch(view, approximable=approximable)
            return _columns(
                [
                    self._record(block, decision)
                    for block, decision in zip(view, decisions)
                ],
                self.block_size_bytes,
            )
        codec_start = time.perf_counter() if metrics.enabled() else 0.0
        decisions = self.slc.analyze_batch_arrays(view, approximable=approximable)
        degraded = self.slc.degraded_rows(view, decisions)
        lossy = decisions.lossy_mask
        self.total_blocks += len(decisions)
        self.lossy_blocks += int(lossy.sum())
        overshoot = decisions.bits_removed[lossy] - decisions.extra_bits[lossy]
        self.total_overshoot_bits += int(np.maximum(0, overshoot).sum())
        if metrics.enabled():
            # codec bits/s is derivable from the two counters (mean over
            # merged snapshots stays exact: total bits / total seconds)
            metrics.inc("codec.encode_s", time.perf_counter() - codec_start)
            metrics.inc("codec.stored_bits", int(decisions.stored_size_bits.sum()))
            metrics.inc("backend.blocks_compressed", len(decisions))
            metrics.inc("backend.lossy_blocks", int(lossy.sum()))
        return (
            decisions.bursts.astype(np.int64, copy=False),
            decisions.stored_size_bits.astype(np.int64, copy=False),
            lossy,
            degraded,
        )

    def _record(self, block: bytes, decision) -> StoredBlock:
        data = self.slc.apply_decision(block, decision)
        self.total_blocks += 1
        if metrics.enabled():
            metrics.inc("backend.blocks_compressed")
            if decision.is_lossy:
                metrics.inc("backend.lossy_blocks")
        if decision.mode is SLCMode.LOSSY:
            self.lossy_blocks += 1
            self.total_overshoot_bits += decision.overshoot_bits
        return StoredBlock(
            bursts=decision.bursts,
            stored_bits=decision.stored_size_bits,
            data=data,
            lossy=decision.is_lossy,
        )

    @property
    def lossy_fraction(self) -> float:
        """Fraction of stored blocks that took the lossy path."""
        if not self.total_blocks:
            return 0.0
        return self.lossy_blocks / self.total_blocks

    @property
    def compress_latency_cycles(self) -> int:
        return self._compress_cycles

    @property
    def decompress_latency_cycles(self) -> int:
        return self._decompress_cycles
