"""The execution-context protocol that decouples *what* the algorithm
computes from *how* its cost is accounted.

Every primitive (:mod:`repro.primitives`) and every pipeline step
(:mod:`repro.core`) is written against :class:`ExecutionContext`: a small
surface of shared-array allocation, synchronous-step scoping, and cited-cost
charging.  Two implementations exist:

* :class:`~repro.backends.pram_backend.PRAMBackend` — wraps the
  :class:`~repro.pram.PRAM` simulator; every step is Brent-scheduled,
  every shared-memory access is checked against the machine's EREW/CREW/CRCW
  mode.  This is the reproduction-fidelity path: the numbers it produces are
  the paper's numbers.
* :class:`~repro.backends.fast_backend.FastBackend` — pure vectorized NumPy;
  steps and charges are no-ops and primitives are free to take vectorized
  shortcuts (``np.cumsum`` instead of the Blelloch sweep, for example).
  This is the throughput path: identical outputs, no accounting.

:func:`resolve_context` is the single coercion point.  It accepts whatever a
caller is likely to hand a primitive — ``None``, a backend name, a raw
:class:`~repro.pram.PRAM` machine (the historical calling convention), or an
already-built context — so every public function in the pipeline keeps one
permissive first parameter.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ContextManager, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pram import PRAM
    from ..pram.tracing import CostReport

__all__ = ["ExecutionContext", "ContextLike", "resolve_context", "make_backend",
           "BACKEND_NAMES"]

#: the names accepted by ``backend="..."`` knobs throughout the package
BACKEND_NAMES = ("pram", "fast")


class ExecutionContext(abc.ABC):
    """Abstract execution backend for the parallel pipeline.

    Attributes
    ----------
    name:
        short identifier (``"pram"`` or ``"fast"``).
    simulates:
        ``True`` when per-step PRAM simulation is in effect (steps are
        accounted, shared accesses are conflict-checked).  Primitives consult
        this flag before taking vectorized shortcuts: when it is ``False``
        they may replace a multi-round simulated loop by a single NumPy
        expression, provided the output is bit-identical.
    machine:
        the underlying :class:`~repro.pram.PRAM` machine, or ``None`` when
        the backend does not simulate one.
    """

    name: str = "abstract"
    simulates: bool = True
    machine: Optional["PRAM"] = None

    # -- memory --------------------------------------------------------- #

    @abc.abstractmethod
    def array(self, source, dtype=np.int64, name: str = "mem"):
        """Allocate a shared array (int length = zero-initialised, else copy).

        The returned handle exposes ``data`` / ``gather`` / ``scatter`` /
        ``local`` / ``fill`` / ``copy_out`` — the
        :class:`~repro.pram.machine.SharedArray` surface.
        """

    # -- steps ---------------------------------------------------------- #

    @abc.abstractmethod
    def step(self, active: Optional[int] = None,
             label: str = "step") -> ContextManager:
        """Scope one synchronous parallel step (a ``with`` block)."""

    @abc.abstractmethod
    def charge(self, label: str, *, time: int, work: int) -> None:
        """Account for a cited primitive without executing it step by step."""

    # -- reporting ------------------------------------------------------ #

    def report(self) -> Optional["CostReport"]:
        """A cost snapshot, or ``None`` when the backend does not account."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: anything the permissive first parameter of a primitive accepts
ContextLike = Union[None, str, "PRAM", ExecutionContext]


def make_backend(name: str, **kwargs) -> ExecutionContext:
    """Instantiate a backend by name (``"pram"`` or ``"fast"``).

    Keyword arguments are forwarded to the backend constructor (e.g.
    ``num_processors=...`` / ``mode=...`` / ``record_steps=...`` for the PRAM
    backend).
    """
    from .fast_backend import FastBackend
    from .pram_backend import PRAMBackend

    if name == "pram":
        return PRAMBackend(**kwargs)
    if name == "fast":
        if kwargs:
            raise TypeError("the fast backend takes no configuration: "
                            f"{sorted(kwargs)}")
        return FastBackend()
    raise ValueError(f"unknown backend {name!r}; expected one of "
                     f"{BACKEND_NAMES}")


def resolve_context(ctx: ContextLike) -> ExecutionContext:
    """Coerce whatever a caller passed into an :class:`ExecutionContext`.

    * ``None``             → a (shared) :class:`FastBackend` — run for the
      answer only, no accounting;
    * an ``ExecutionContext`` → returned unchanged;
    * a :class:`~repro.pram.PRAM` machine → wrapped in a
      :class:`PRAMBackend` accounting on that machine (the historical
      ``machine=...`` calling convention keeps working);
    * a string (``"pram"`` / ``"fast"``) → :func:`make_backend`.
    """
    if ctx is None:
        from .fast_backend import FAST_BACKEND
        return FAST_BACKEND
    if isinstance(ctx, ExecutionContext):
        return ctx
    if isinstance(ctx, str):
        return make_backend(ctx)
    from ..pram import PRAM
    if isinstance(ctx, PRAM):
        from .pram_backend import PRAMBackend
        return PRAMBackend(ctx)
    raise TypeError(
        f"cannot build an execution context from {type(ctx).__name__}; pass "
        f"None, a backend name {BACKEND_NAMES}, a PRAM machine, or an "
        f"ExecutionContext")
