"""Pluggable execution backends for the parallel pipeline.

``repro`` separates *what the algorithm computes* from *how its cost is
accounted*.  Every primitive and pipeline step is written against the
:class:`ExecutionContext` protocol; the two shipped implementations are

* :class:`PRAMBackend` — the reproduction-fidelity path: full
  :class:`~repro.pram.PRAM` simulation with Brent scheduling and
  EREW/CREW/CRCW access checking;
* :class:`FastBackend` — the throughput path: pure vectorized NumPy with all
  accounting compiled away (steps are no-ops, primitives take direct
  vectorized shortcuts).

Use :func:`resolve_context` to coerce a caller-supplied value (``None``, a
backend name, a raw machine, or a context) and :func:`make_backend` to build
one by name.
"""

from .base import (
    BACKEND_NAMES,
    ContextLike,
    ExecutionContext,
    make_backend,
    resolve_context,
)
from .fast_backend import FAST_BACKEND, FastArray, FastBackend
from .pram_backend import PRAMBackend

__all__ = [
    "ExecutionContext",
    "PRAMBackend",
    "FastBackend",
    "FastArray",
    "FAST_BACKEND",
    "resolve_context",
    "make_backend",
    "BACKEND_NAMES",
    "ContextLike",
]
