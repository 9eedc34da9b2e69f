"""Optional accelerated kernel backend: ``REPRO_KERNEL_BACKEND``.

Every batched kernel in this package is pure NumPy by default.  This module
adds an opt-in execution backend behind the same scalar-oracle pattern the
kernels themselves follow — the accelerated paths must produce bit-identical
results, and anything unavailable degrades silently to pure NumPy:

* ``numpy`` (default) — single-threaded NumPy array programs.
* ``threaded`` — row/block-partitionable kernels (payload codec pack/decode,
  the Fig. 4 decision kernel, the lossless size kernels) split their batch
  across a small thread pool.  NumPy releases the GIL inside its ufuncs, so
  shards genuinely overlap; every shard runs the identical NumPy code on a
  contiguous slice, which keeps results bit-exact by construction.
* ``numba`` — kernels with a numba implementation (currently the Huffman
  decode) run JIT-compiled; everything else, and every process where numba
  is not importable or fails to compile, falls back to NumPy silently.

Selection is by environment variable so campaign pool workers (both fork and
spawn start methods) inherit it without any plumbing through job hashes::

    REPRO_KERNEL_BACKEND=threaded    # or numpy / numba
    REPRO_KERNEL_THREADS=4           # optional thread-pool width

The backend never changes *what* is computed, only *how* — the golden-result
suite and ``tests/test_kernel_backend.py`` pin all backends to identical
outputs.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Callable, TypeVar

__all__ = [
    "VALID_BACKENDS",
    "active_backend",
    "requested_backend",
    "numba_available",
    "thread_workers",
    "shard_ranges",
    "run_sharded",
    "shard_threshold",
]

#: accepted ``REPRO_KERNEL_BACKEND`` values
VALID_BACKENDS = ("numpy", "threaded", "numba")

#: smallest batch (rows/blocks) worth sharding across threads — below this
#: the pool dispatch overhead beats any overlap
MIN_SHARD_ROWS = 256

T = TypeVar("T")


def requested_backend() -> str:
    """The backend named by ``REPRO_KERNEL_BACKEND`` (invalid → ``numpy``).

    Read from the environment on every call so tests (and campaign workers
    that set the variable after import) see changes immediately.
    """
    name = os.environ.get("REPRO_KERNEL_BACKEND", "numpy").strip().lower()
    return name if name in VALID_BACKENDS else "numpy"


@lru_cache(maxsize=1)
def numba_available() -> bool:
    """Whether numba imports in this process (probed once, cached)."""
    try:  # pragma: no cover - exercised only where numba is installed
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def active_backend() -> str:
    """The backend that will actually run: the requested one, downgraded
    to ``numpy`` when ``numba`` was requested but is not importable."""
    name = requested_backend()
    if name == "numba" and not numba_available():
        return "numpy"
    return name


def thread_workers() -> int:
    """Thread-pool width for the ``threaded`` backend."""
    raw = os.environ.get("REPRO_KERNEL_THREADS", "").strip()
    if raw.isdigit() and int(raw) > 0:
        return int(raw)
    return min(8, os.cpu_count() or 1)


def shard_threshold() -> int:
    """Batch size below which sharding is skipped (kept callable for tests)."""
    return MIN_SHARD_ROWS


_pool: ThreadPoolExecutor | None = None
_pool_width: int = 0


def _get_pool(width: int) -> ThreadPoolExecutor:
    """The process-wide kernel thread pool (rebuilt if the width changed)."""
    global _pool, _pool_width
    if _pool is None or _pool_width != width:
        if _pool is not None:
            _pool.shutdown(wait=False)
        _pool = ThreadPoolExecutor(
            max_workers=width, thread_name_prefix="repro-kernel"
        )
        _pool_width = width
    return _pool


def _forget_pool() -> None:
    """Drop the pool in a forked child, which inherits it without its threads.

    Campaign pool workers fork from a parent that may already have sharded
    a batch; work submitted to the inherited pool would never run.
    """
    global _pool, _pool_width
    _pool, _pool_width = None, 0


os.register_at_fork(after_in_child=_forget_pool)


def shard_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into up to ``parts`` contiguous, near-equal slices."""
    parts = max(1, min(parts, n))
    bounds = [n * i // parts for i in range(parts + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(parts) if bounds[i + 1] > bounds[i]]


def run_sharded(
    work: Callable[[int, int], T], n: int, *, min_rows: int | None = None
) -> list[T] | None:
    """Run ``work(lo, hi)`` over contiguous shards of ``range(n)`` in threads.

    Returns the per-shard results in order, or ``None`` when the active
    backend is not ``threaded`` or the batch is too small to be worth
    splitting — callers then take their single-shot NumPy path.  A shard
    that raises propagates its exception to the caller unchanged.
    """
    threshold = MIN_SHARD_ROWS if min_rows is None else min_rows
    if active_backend() != "threaded" or n < 2 * threshold:
        return None
    workers = thread_workers()
    ranges = shard_ranges(n, workers)
    if len(ranges) < 2:
        return None
    pool = _get_pool(workers)
    futures = [pool.submit(work, lo, hi) for lo, hi in ranges]
    return [future.result() for future in futures]
