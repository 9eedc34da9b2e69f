"""Shared low-level utilities: bit-level I/O and block manipulation."""

from repro.utils.bitstream import BitReader, BitWriter
from repro.utils.blocks import (
    array_to_blocks,
    as_block_matrix,
    block_matrix,
    blocks_to_array,
    block_to_symbols,
    bytes_to_words,
    symbols_to_block,
    words_to_bytes,
)
from repro.utils.sampling import sample_evenly

__all__ = [
    "BitReader",
    "BitWriter",
    "sample_evenly",
    "array_to_blocks",
    "as_block_matrix",
    "block_matrix",
    "blocks_to_array",
    "block_to_symbols",
    "symbols_to_block",
    "bytes_to_words",
    "words_to_bytes",
]
