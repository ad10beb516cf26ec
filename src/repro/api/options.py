"""Typed, validated solver configuration.

:class:`SolveOptions` replaces the ``method`` / ``backend`` / ``mode`` /
``num_processors`` string soup that used to be spread across
``minimum_path_cover``, ``minimum_path_cover_parallel`` and ``solve_batch``.
It is a *frozen* dataclass: one immutable value describes a complete solver
configuration, and every incompatible combination is rejected at construction
time — never silently ignored.  The historical bug this fixes:
``minimum_path_cover(tree, method="sequential", backend="fast")`` used to
drop ``backend`` on the floor; now it raises :class:`ValueError`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple, Union

from ..backends import BACKEND_NAMES
from ..pram import AccessMode
from .cache import SolutionCache

__all__ = ["SolveOptions", "METHOD_NAMES", "BACKEND_ALIASES"]

#: the two algorithm families behind :func:`repro.api.solve`.
METHOD_NAMES = ("parallel", "sequential")

#: deprecated backend names and the backend each one now runs on; accepted
#: for one release, normalised at construction with a DeprecationWarning
BACKEND_ALIASES = {"kernel": "fast"}


@dataclass(frozen=True)
class SolveOptions:
    """One immutable, validated solver configuration.

    Attributes
    ----------
    method:
        ``"parallel"`` (the paper's Theorem 5.3 pipeline — the default) or
        ``"sequential"`` (the Lin–Olariu–Pruesse reference algorithm).
    backend:
        execution backend for the parallel method: ``"pram"`` (simulate the
        paper's machine, with accounting and conflict checking), ``"fast"``
        (raw vectorized NumPy) or ``None`` (method default: ``"pram"``).
        Must stay ``None`` for ``method="sequential"``.  A deprecated name
        from :data:`BACKEND_ALIASES` is replaced by its target.
    num_processors:
        PRAM processor count override (``backend="pram"`` only); ``None``
        means the paper's ``ceil(n / log2 n)``.
    mode:
        PRAM access mode (``backend="pram"`` only); accepts an
        :class:`~repro.pram.AccessMode` or its string value, normalised to
        the enum.
    work_efficient:
        use the work-efficient primitive variants (``backend="pram"`` only:
        the fast backend always takes its direct vectorized shortcuts).
    validate:
        check every produced cover against the LCA adjacency oracle and the
        analytic path count before returning.
    record_steps:
        keep the per-step PRAM trace (``backend="pram"`` only).
    cache:
        a :class:`~repro.api.SolutionCache` consulted (and filled) by the
        front door — identical instances are answered without re-running
        anything.  Lives in the calling process only: it never crosses a
        process boundary and is excluded from :meth:`to_dict`.
    batch_small:
        batch/stream routing threshold: instances with at most this many
        vertices are diverted from the worker pool into single-core
        vectorized *forest sweeps* (:func:`~repro.api.solve_forest`) by
        :func:`~repro.api.solve_many` / :func:`~repro.api.solve_stream`.
        ``None`` (the default) disables the diversion.  Like ``cache``
        this is a *dispatch* knob, not an engine choice: it never changes
        any answer, is excluded from :meth:`to_dict`, and does not
        perturb cache keys.
    weights:
        per-vertex non-negative integer weights for the weighted DP tasks
        (``max_weight_independent_set`` / ``max_weight_clique``): entry
        ``i`` is vertex ``i``'s weight, so the length must equal the
        instance's vertex count.  Normalised to a tuple of ints; any
        sequence is accepted.  Weights *are* part of the problem, so they
        participate in :meth:`to_dict` (and therefore cache keys).  The
        front door rejects weights passed to a task that ignores them.
    """

    method: str = "parallel"
    backend: Optional[str] = None
    num_processors: Optional[int] = None
    mode: Union[AccessMode, str] = AccessMode.EREW
    work_efficient: bool = True
    validate: bool = False
    record_steps: bool = False
    cache: Optional[SolutionCache] = None
    batch_small: Optional[int] = None
    weights: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.method not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.method!r}; "
                             f"use one of {METHOD_NAMES}")
        if self.backend in BACKEND_ALIASES:
            target = BACKEND_ALIASES[self.backend]
            warnings.warn(f"backend={self.backend!r} is deprecated and runs "
                          f"as backend={target!r}; it will be removed in "
                          f"the next release", DeprecationWarning,
                          stacklevel=3)
            object.__setattr__(self, "backend", target)
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"use one of {tuple(BACKEND_NAMES)} or None")
        # normalise mode to the enum (raises ValueError on a bad string)
        object.__setattr__(self, "mode", AccessMode(self.mode))
        if self.cache is not None and not isinstance(self.cache,
                                                     SolutionCache):
            raise TypeError(f"cache must be a SolutionCache or None, "
                            f"got {type(self.cache).__name__}")
        if self.batch_small is not None:
            threshold = int(self.batch_small)
            if threshold < 1:
                raise ValueError(f"batch_small must be >= 1 or None, "
                                 f"got {self.batch_small!r}")
            object.__setattr__(self, "batch_small", threshold)
        if self.weights is not None:
            try:
                normalised = tuple(int(w) for w in self.weights)
            except (TypeError, ValueError):
                raise ValueError(
                    f"weights must be a sequence of integers or None, "
                    f"got {self.weights!r}") from None
            if any(w < 0 for w in normalised):
                bad = next(w for w in normalised if w < 0)
                raise ValueError(f"weights must be non-negative (the "
                                 f"weighted DP specs require it), got {bad}")
            object.__setattr__(self, "weights", normalised)

        if self.method == "sequential":
            bad = self._non_default_parallel_knobs()
            if self.backend is not None:
                bad.insert(0, f"backend={self.backend!r}")
            if bad:
                raise ValueError(
                    f"option(s) {', '.join(bad)} only apply to "
                    f"method='parallel'; they would be ignored by the "
                    f"sequential algorithm — remove them or switch methods")
        elif self.backend is not None and self.backend != "pram":
            bad = self._non_default_parallel_knobs()
            if bad:
                raise ValueError(
                    f"PRAM-only knob(s) {', '.join(bad)} have no effect "
                    f"with backend={self.backend!r}; they configure the "
                    f"simulated run (backend='pram')")

    # ------------------------------------------------------------------ #

    def _pram_only_knobs(self) -> list:
        bad = []
        if self.num_processors is not None:
            bad.append(f"num_processors={self.num_processors!r}")
        if self.mode is not AccessMode.EREW:
            bad.append(f"mode={self.mode.value!r}")
        if self.record_steps:
            bad.append("record_steps=True")
        return bad

    def _non_default_parallel_knobs(self) -> list:
        bad = self._pram_only_knobs()
        if not self.work_efficient:
            bad.append("work_efficient=False")
        return bad

    # ------------------------------------------------------------------ #

    @property
    def resolved_backend(self) -> str:
        """The backend name a solve will actually run on.

        ``"sequential"`` for the sequential method, else the explicit
        backend or the parallel default ``"pram"``.
        """
        if self.method == "sequential":
            return "sequential"
        return self.backend if self.backend is not None else "pram"

    def solver_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for the parallel engine
        (:func:`repro.core.minimum_path_cover_parallel`)."""
        if self.method != "parallel":
            raise ValueError("solver_kwargs() is only meaningful for "
                             "method='parallel'")
        return {
            "backend": self.resolved_backend,
            "num_processors": self.num_processors,
            "mode": self.mode,
            "work_efficient": self.work_efficient,
            "validate": self.validate,
            "record_steps": self.record_steps,
        }

    def with_(self, **changes: Any) -> "SolveOptions":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable dict (``mode`` as its string value; the
        dispatch-only knobs — the live ``cache`` object and the
        ``batch_small`` routing threshold — are excluded: neither changes
        what a solve computes)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("cache", "batch_small")}
        out["mode"] = self.mode.value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SolveOptions":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SolveOptions field(s): "
                             f"{sorted(unknown)}")
        return cls(**data)
