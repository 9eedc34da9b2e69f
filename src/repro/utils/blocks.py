"""Helpers for slicing NumPy arrays into fixed-size memory blocks.

GPU memory compression operates on cache-line-sized blocks (128 B in the
paper).  Workload data lives in NumPy arrays; these helpers convert between
array storage and the byte blocks the compressors and the memory controller
see, and between blocks and the 16-bit symbol streams E2MC/SLC operate on.
"""

from __future__ import annotations

import numpy as np

DEFAULT_BLOCK_SIZE = 128
SYMBOL_BYTES = 2
WORD_BYTES = 4


def block_matrix(array: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """An array's raw bytes as an ``(n_blocks, block_size)`` uint8 matrix.

    A C-contiguous array whose size is a whole number of blocks is viewed,
    not copied.  Otherwise the bytes are copied and the final block is
    zero-padded to ``block_size`` bytes, mirroring how a memory allocation
    is padded to whole cache lines.
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    flat = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
    remainder = flat.size % block_size
    if remainder:
        flat = np.concatenate([flat, np.zeros(block_size - remainder, np.uint8)])
    return flat.reshape(-1, block_size)


def as_block_matrix(blocks, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """Coerce a block matrix or a sequence of ``block_size``-byte blocks.

    A 2-D uint8 array of ``block_size`` columns is returned as is; a
    sequence of bytes-like blocks is joined into a fresh matrix.  Raises
    ``ValueError`` when the blocks do not all have ``block_size`` bytes.
    """
    if isinstance(blocks, np.ndarray):
        if blocks.ndim != 2 or blocks.shape[1] != block_size or blocks.dtype != np.uint8:
            raise ValueError(
                f"expected an (n, {block_size}) uint8 block matrix, got "
                f"{blocks.dtype} {blocks.shape}"
            )
        return blocks
    blocks = list(blocks)
    for index, block in enumerate(blocks):
        if len(block) != block_size:
            raise ValueError(
                f"block {index} is {len(block)} bytes, expected {block_size}"
            )
    joined = b"".join(blocks)
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(blocks), block_size)


def array_to_blocks(array: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> list[bytes]:
    """Split an array's raw bytes into ``block_size`` chunks.

    The per-block ``bytes`` form of :func:`block_matrix` (same zero
    padding), for scalar code that handles one block at a time.
    """
    return [row.tobytes() for row in block_matrix(array, block_size)]


def blocks_to_array(
    blocks,
    dtype: np.dtype,
    shape: tuple[int, ...],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Reassemble an array from its blocks.

    ``blocks`` is a block matrix (as from :func:`block_matrix`), whose
    leading bytes are viewed without a copy, or a sequence of per-block
    ``bytes`` (as from :func:`array_to_blocks`), which is joined into a
    fresh array.
    """
    count = int(np.prod(shape))
    needed = count * np.dtype(dtype).itemsize
    if isinstance(blocks, np.ndarray):
        flat = np.ascontiguousarray(blocks).reshape(-1)
    else:
        flat = np.frombuffer(bytearray(b"".join(blocks)), dtype=np.uint8)
    if flat.size < needed:
        raise ValueError(
            f"blocks provide {flat.size} bytes but shape {shape} needs {needed}"
        )
    return flat[:needed].view(dtype).reshape(shape)


def block_to_symbols(block: bytes, symbol_bytes: int = SYMBOL_BYTES) -> list[int]:
    """Split a block into fixed-width little-endian symbols (16-bit default)."""
    if len(block) % symbol_bytes:
        raise ValueError(
            f"block length {len(block)} is not a multiple of symbol size {symbol_bytes}"
        )
    symbols = []
    for start in range(0, len(block), symbol_bytes):
        symbols.append(int.from_bytes(block[start:start + symbol_bytes], "little"))
    return symbols


def symbols_to_block(symbols: list[int], symbol_bytes: int = SYMBOL_BYTES) -> bytes:
    """Inverse of :func:`block_to_symbols`."""
    out = bytearray()
    limit = 1 << (8 * symbol_bytes)
    for symbol in symbols:
        if not 0 <= symbol < limit:
            raise ValueError(f"symbol {symbol} out of range for {symbol_bytes} bytes")
        out.extend(int(symbol).to_bytes(symbol_bytes, "little"))
    return bytes(out)


def bytes_to_words(block: bytes, word_bytes: int = WORD_BYTES) -> list[int]:
    """Split a block into fixed-width little-endian words (32-bit default)."""
    return block_to_symbols(block, symbol_bytes=word_bytes)


def words_to_bytes(words: list[int], word_bytes: int = WORD_BYTES) -> bytes:
    """Inverse of :func:`bytes_to_words`."""
    return symbols_to_block(words, symbol_bytes=word_bytes)
