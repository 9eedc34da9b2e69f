"""Vectorized trace-replay engine.

Replaces the simulator's per-access Python loop — one ``OrderedDict`` L2
lookup per block access plus a chain of per-block memory-controller /
metadata-cache / DRAM-channel method calls per miss — with array-speed
equivalents that reproduce the scalar counters **bit-exactly**:

* :func:`repro.replay.l2.replay_l2` — exact set-associative LRU over a
  compiled trace, resolved per set via reuse distance (an access hits iff
  fewer than ``ways`` distinct lines in its set were touched since its
  previous use), with dirty tracking for eviction/writeback counts.
* :func:`repro.replay.mdc.replay_mdc` — exact fully-associative LRU
  metadata-cache replay over a controller's miss-event stream.
* :func:`repro.replay.dram.replay_dram` — grouped per-(controller, bank)
  row-hit/row-miss scan replacing per-request ``DRAMChannel.service`` calls.
* :func:`repro.replay.engine.replay_trace` — the orchestrator wired into
  ``GPUSimulator.run``'s production pipeline.
* :func:`repro.replay.reference.replay_trace_scalar` — the original scalar
  loop, kept as the n = 1 reference: ``GPUSimulator(reference=True)`` runs
  it, and the equivalence suite checks the engine against it.
"""

from repro.replay.dram import replay_dram
from repro.replay.engine import replay_trace
from repro.replay.l2 import replay_l2
from repro.replay.mdc import replay_mdc
from repro.replay.reference import replay_trace_scalar

__all__ = [
    "replay_dram",
    "replay_l2",
    "replay_mdc",
    "replay_trace",
    "replay_trace_scalar",
]
