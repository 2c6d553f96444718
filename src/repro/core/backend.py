"""Simulation backends: the seam between model and engine.

The cycle-level *model* — stage semantics, machine configuration,
reliability accounting — lives in :class:`~repro.core.pipeline.SMTPipeline`
and its components.  A :class:`SimBackend` is an *engine* that executes
that model:

* the **reference** backend is the inline interpreter in
  ``SMTPipeline.run`` — one labelled stage-method call per stage per
  cycle, exactly the per-stage read/write contract that
  ``backend-contract.json`` is extracted from;
* the **fast** backend (:mod:`repro.core.fastsim`) executes the same
  contract with a specialized cycle loop: hoisted component state,
  precomputed opclass tables and an event-driven scheduler that skips
  provably-inert cycles.

Both start from the same functional warm-up, restored from the
engine-independent warm-state cache (:mod:`repro.core.warmstate`)
when an identical one already ran in this process.

Every backend must be *observationally equivalent* on
:class:`~repro.core.pipeline.SimulationResult`: the differential suite
in ``tests/test_differential.py`` asserts metric-for-metric parity
(IPC, AVFs, PVE, interval series) across backends on every figure
configuration.  Adding a backend means implementing :meth:`SimBackend.run`
against the contract and registering it here; the parity suite picks it
up via :func:`backend_names`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import SimulationResult, SMTPipeline


class SimBackend(ABC):
    """An execution engine for the :class:`SMTPipeline` model."""

    #: Registry key and CLI spelling (``--backend <name>``).
    name = "base"

    @abstractmethod
    def run(self, pipe: "SMTPipeline") -> "SimulationResult":
        """Execute ``pipe`` to completion and return its result."""


class ReferenceBackend(SimBackend):
    """The inline interpreter loop of ``SMTPipeline.run`` itself.

    The pipeline treats a resolved reference backend as "no backend"
    and runs its own loop; this class exists so the registry is total
    and so a pipeline constructed for another backend can still be
    executed by the reference engine explicitly.
    """

    name = "reference"

    def run(self, pipe: "SMTPipeline") -> "SimulationResult":
        prev = pipe._backend
        pipe._backend = None  # select the inline interpreter path
        try:
            return pipe.run()
        finally:
            pipe._backend = prev


class FastBackend(SimBackend):
    """Specialized cycle loop with event-driven idle-cycle skipping
    (see :mod:`repro.core.fastsim`)."""

    name = "fast"

    def run(self, pipe: "SMTPipeline") -> "SimulationResult":
        from repro.core.fastsim import run_fast

        return run_fast(pipe)


_BACKENDS: dict[str, type[SimBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
    FastBackend.name: FastBackend,
}


def backend_names() -> list[str]:
    """Registered backend names, reference first."""
    return sorted(_BACKENDS, key=lambda n: (n != "reference", n))


def register_backend(cls: type[SimBackend]) -> type[SimBackend]:
    """Register a backend class (usable as a decorator)."""
    if not cls.name or cls.name == "base":
        raise ValueError("backend classes must define a unique name")
    _BACKENDS[cls.name] = cls
    return cls


def make_backend(spec: "str | SimBackend") -> SimBackend:
    """Instantiate a backend by name (or pass an instance through)."""
    if isinstance(spec, SimBackend):
        return spec
    try:
        return _BACKENDS[spec.lower()]()
    except KeyError:
        raise KeyError(
            f"unknown backend {spec!r}; available: {backend_names()}"
        ) from None


def resolve_backend(spec: "str | SimBackend | None") -> SimBackend | None:
    """Resolve a constructor argument to the pipeline's internal form:
    ``None`` selects the inline reference interpreter."""
    if spec is None:
        return None
    backend = make_backend(spec)
    return None if backend.name == ReferenceBackend.name else backend
