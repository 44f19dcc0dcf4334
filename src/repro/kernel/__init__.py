"""Array-based routing kernel: CSR graph view, batched SPF, vectorized flows.

Every experiment in the paper reduces to the same inner loop — per-destination
shortest-path DAGs, splitting ratios, and flow propagation to link
utilizations — and the pure-Python implementations (:mod:`repro.graph.paths`,
:mod:`repro.routing.propagation`) pay dict-and-heapq prices for every
candidate the local search or the oracle evaluates.  This package is the
vectorized re-implementation of exactly that kernel:

* :mod:`repro.kernel.csr` — an indexed CSR view of a :class:`Network`
  (node/edge index maps, weight/capacity vectors), cached per network;
* :mod:`repro.kernel.spf` — batched all-destination shortest paths via
  ``scipy.sparse.csgraph.dijkstra`` plus vectorized ECMP DAG extraction from
  the relaxation condition ``dist[u] ~= w(u,v) + dist[v]`` on edge arrays;
* :mod:`repro.kernel.propagate` — topological-level sparse sweeps producing
  node arrivals, edge loads, and max-utilization for demand matrices, plus
  :class:`~repro.kernel.propagate.LevelSweep`, whose adjoint sweep gives the
  splitting optimizers their gradients (always on; not a swap-in point);
* :mod:`repro.kernel.coefficients` — vectorized assembly of the worst-case
  oracle's per-edge objective coefficients (``f_st(u) * phi_t(e)``);
* :mod:`repro.kernel.delta` — delta re-evaluation for the local search's
  weight step: a single-link weight change recomputes only the destinations
  whose shortest-path DAG actually changed.

The pure-Python implementations remain in place as the reference oracle: the
swap-in points dispatch through :func:`kernel_enabled`, and the differential
test suite (``tests/test_kernel_differential.py``) pins kernel-vs-reference
equivalence (identical DAG edge sets, ratios and loads within 1e-9).  Set
``REPRO_KERNEL=0`` to force every caller onto the reference path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

_FALSY = ("0", "false", "False", "no", "off")

#: Tri-state override installed by :func:`set_kernel_enabled` / tests;
#: ``None`` defers to the ``REPRO_KERNEL`` environment variable.
_OVERRIDE: bool | None = None


def kernel_enabled() -> bool:
    """Whether swap-in points should use the vectorized kernel.

    Defaults to on; ``REPRO_KERNEL=0`` (or a :func:`set_kernel_enabled`
    override, which wins) selects the pure-Python reference path instead.
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get("REPRO_KERNEL", "1") not in _FALSY


def set_kernel_enabled(enabled: bool | None) -> None:
    """Force the kernel on/off (``None`` restores the environment default)."""
    global _OVERRIDE
    _OVERRIDE = enabled


@contextmanager
def kernel_disabled() -> Iterator[None]:
    """Run a block on the pure-Python reference path (used by tests)."""
    previous = _OVERRIDE
    set_kernel_enabled(False)
    try:
        yield
    finally:
        set_kernel_enabled(previous)


from repro.kernel.csr import CsrIndex, csr_index, weight_vector  # noqa: E402
from repro.kernel.spf import SpfState, all_targets_spf, shortest_path_dags  # noqa: E402
from repro.kernel.delta import EcmpDeltaEvaluator  # noqa: E402

__all__ = [
    "CsrIndex",
    "EcmpDeltaEvaluator",
    "SpfState",
    "all_targets_spf",
    "csr_index",
    "kernel_disabled",
    "kernel_enabled",
    "set_kernel_enabled",
    "shortest_path_dags",
    "weight_vector",
]
