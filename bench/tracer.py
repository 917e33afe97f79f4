"""Span tracer for the platevac layers, installed from outside the package.

`Tracer.install` replaces the public module-level functions of every
imported layer module by timing wrappers. Because the replacement is an
attribute assignment on the module, calls a layer makes through its own
module globals (``verify_central_relation`` calling ``build_hamiltonian``,
``exactlin.rank`` calling ``rref``) are caught as well. Three foreign names
are wrapped where the layers look them up: ord-2 ``numpy.linalg.norm`` (a
full SVD), and the ``solve_ivp`` and ``quad`` names bound in ``adiabatic``
and ``casimir``.

Spans are kept in memory as ``[name, start, end, parent, job]`` lists and
written out by the caller when the run ends. `layer_metrics` turns them
into per-layer numbers: every span's self time (its duration minus its
direct children) is charged to exactly one category, so the category times
of a round add up to the time spent inside the layers.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("exactlin", "algebra", "lattice", "casimir", "adiabatic", "cli")

# Called once per right-hand-side or tower-term evaluation. A span each would
# swamp the trace; their time belongs to the solver or route that calls them.
HOT = frozenset({"adiabatic.schedule_eval", "casimir.cutoff_energy_density"})

BOOKKEEPING = "trace.bookkeeping"

# span name -> category charged with the span's self time; names not listed
# fall back to "<layer>.self_s"
CATEGORY = {
    "lattice.spectral_norm": "lattice.spectral_norm_s",
    "lattice.commutator": "lattice.commutator_s",
    "lattice.build_mode_basis": "lattice.mode_basis_s",
    "lattice.build_hamiltonian": "lattice.assembly_s",
    "lattice.build_momentum": "lattice.assembly_s",
    "lattice.build_boost": "lattice.assembly_s",
    "lattice.build_rotation": "lattice.assembly_s",
    "lattice.local_energy_density": "lattice.assembly_s",
    "lattice.vacuum_expectation": "lattice.vev_s",
    "lattice.normal_ordered": "lattice.vev_s",
    "lattice.bulk_residual_norm": "lattice.bulk_norm_s",
    "exactlin.rref": "exactlin.rref_s",
    "algebra.coboundary_solve": "algebra.coboundary_solve_s",
    "algebra.h2_dimension": "algebra.h2_s",
    "algebra.cocycle_check": "algebra.cocycle_check_s",
    "algebra.jacobi_check": "algebra.jacobi_s",
    "algebra.change_basis": "algebra.change_basis_s",
    "adiabatic.solve_ivp": "adiabatic.solve_ivp_s",
    "adiabatic.evolve_mode": "adiabatic.post_s",
    "casimir.zeta": "casimir.zeta_s",
    "casimir.abel_plana": "casimir.abel_plana_s",
    "casimir.cutoff": "casimir.cutoff_s",
    "cli.main": "cli.self_s",
}

# Helpers whose self time belongs to the calling function of the same layer:
# the Fraction conversion inside rref, the quadrature inside a Casimir route.
INHERIT = frozenset({"exactlin.as_matrix", "casimir.quad"})

_CASIMIR_ROUTES = {"zeta": "zeta", "abel_plana": "abel_plana", "cutoff_extrapolation": "cutoff"}

# Per-layer metrics: name -> unit. Times and counts are per round of the
# workload's job list; ratios are pooled over the traced round(s).
METRICS = {
    "lattice.spectral_norm_s": "s/round",
    "lattice.spectral_norm_calls": "count/round",
    "lattice.commutator_s": "s/round",
    "lattice.commutator_calls": "count/round",
    "lattice.mode_basis_s": "s/round",
    "lattice.assembly_s": "s/round",
    "lattice.vev_s": "s/round",
    "lattice.bulk_norm_s": "s/round",
    "lattice.self_s": "s/round",
    "lattice.dense_mb": "MB/round",
    "lattice.quad_density": "ratio",
    "exactlin.rref_s": "s/round",
    "exactlin.rref_calls": "count/round",
    "exactlin.rref_cells": "count/round",
    "exactlin.zero_row_share": "ratio",
    "exactlin.pivot_ratio": "ratio",
    "exactlin.self_s": "s/round",
    "algebra.coboundary_solve_s": "s/round",
    "algebra.h2_s": "s/round",
    "algebra.cocycle_check_s": "s/round",
    "algebra.jacobi_s": "s/round",
    "algebra.change_basis_s": "s/round",
    "algebra.self_s": "s/round",
    "adiabatic.solve_ivp_s": "s/round",
    "adiabatic.nfev": "count/round",
    "adiabatic.steps": "count/round",
    "adiabatic.nfev_per_step": "ratio",
    "adiabatic.evolve_s": "s/round",
    "adiabatic.evolve_calls": "count/round",
    "adiabatic.post_s": "s/round",
    "adiabatic.self_s": "s/round",
    "casimir.zeta_s": "s/round",
    "casimir.abel_plana_s": "s/round",
    "casimir.cutoff_s": "s/round",
    "casimir.quad_calls": "count/round",
    "casimir.self_s": "s/round",
    "cli.main_s": "s/round",
    "cli.self_s": "s/round",
    "cli.output_bytes": "count/round",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans around wrapped calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded in another process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for name, start, end, up, _ in spans:
            self.spans.append([name, start, end, parent if up is None else base + up, self.job])

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, rename=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                with self.span(BOOKKEEPING):
                    before(args, kwargs)
            index = self.open(rename(args, kwargs) if rename else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every imported layer module; safe to call once per tracer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for layer in LAYERS:
            module = sys.modules.get(f"platevac.{layer}")
            if module is None:
                continue
            for attr, fn in vars(module).copy().items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in HOT or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._patch(module, attr, self._wrap(name, fn, **hooks.get(name, {})))
            foreign = {"adiabatic": "solve_ivp", "casimir": "quad"}.get(layer)
            if foreign and hasattr(module, foreign):
                name = f"{layer}.{foreign}"
                self._patch(module, foreign,
                            self._wrap(name, getattr(module, foreign), **hooks.get(name, {})))
        linalg = sys.modules.get("numpy.linalg")
        if linalg is not None:
            self._patch(linalg, "norm", self._spectral_norm(linalg.norm))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def _spectral_norm(self, norm):
        traced = self._wrap("lattice.spectral_norm", norm)

        def wrapper(x, ord=None, *args, **kwargs):
            if ord == 2 and getattr(x, "ndim", 0) == 2:
                return traced(x, ord, *args, **kwargs)
            return norm(x, ord, *args, **kwargs)

        wrapper.__wrapped__ = norm
        return wrapper

    def _hooks(self) -> dict:
        c = self.counters

        def rref_input(args, kwargs):
            rows = args[0] if args else kwargs["rows"]
            c["exactlin.rows"] += len(rows)
            c["exactlin.cells"] += sum(len(row) for row in rows)
            c["exactlin.zero_rows"] += sum(1 for row in rows if not any(x != 0 for x in row))

        def rref_output(result):
            c["exactlin.pivots"] += len(result[1])

        def dense_quad(result):
            quad = result.quad
            c["lattice.dense_bytes"] += quad.nbytes
            c["lattice.entries"] += quad.size
            c["lattice.nonzeros"] += int((quad != 0).sum())

        def ode_effort(result):
            c["adiabatic.nfev"] += int(result.nfev)
            c["adiabatic.steps"] += max(len(result.t) - 1, 0)

        def casimir_route(args, kwargs):
            method = args[1] if len(args) > 1 else kwargs.get("method", "zeta")
            return "casimir." + _CASIMIR_ROUTES.get(method, "self")

        hooks = {
            "exactlin.rref": {"before": rref_input, "after": rref_output},
            "lattice.commutator": {"after": dense_quad},
            "adiabatic.solve_ivp": {"after": ode_effort},
            "casimir.casimir_energy_per_area": {"rename": casimir_route},
        }
        for fn in ("build_hamiltonian", "build_momentum", "build_boost", "build_rotation"):
            hooks[f"lattice.{fn}"] = {"after": dense_quad}
        return hooks


def _category(spans: list[list], index: int) -> str | None:
    """Category of span `index`, or None for spans outside the layers."""
    name, _, _, parent, _ = spans[index]
    layer = name.split(".", 1)[0]
    if layer not in LAYERS:
        return None
    if name in INHERIT and parent is not None and spans[parent][0].split(".", 1)[0] == layer:
        return _category(spans, parent)
    return CATEGORY.get(name, f"{layer}.self_s")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], counters: Counter, rounds: int) -> dict[str, float]:
    """Per-layer metrics of `rounds` traced rounds, keyed as in METRICS."""
    per_round = 1.0 / rounds
    out = {name: 0.0 for name in METRICS}
    calls = Counter(span[0] for span in spans)
    own = self_times(spans)
    for index, span in enumerate(spans):
        category = _category(spans, index)
        if category is not None:
            out[category] += own[index]
        if span[0] == "adiabatic.evolve_mode":
            out["adiabatic.evolve_s"] += span[2] - span[1]
        elif span[0] == "cli.main":
            out["cli.main_s"] += span[2] - span[1]
    for name in METRICS:
        if name.endswith("_s"):
            out[name] *= per_round
    out["lattice.spectral_norm_calls"] = calls["lattice.spectral_norm"] * per_round
    out["lattice.commutator_calls"] = calls["lattice.commutator"] * per_round
    out["lattice.dense_mb"] = counters["lattice.dense_bytes"] / 1e6 * per_round
    out["lattice.quad_density"] = _ratio(counters["lattice.nonzeros"], counters["lattice.entries"])
    out["exactlin.rref_calls"] = calls["exactlin.rref"] * per_round
    out["exactlin.rref_cells"] = counters["exactlin.cells"] * per_round
    out["exactlin.zero_row_share"] = _ratio(counters["exactlin.zero_rows"], counters["exactlin.rows"])
    out["exactlin.pivot_ratio"] = _ratio(counters["exactlin.pivots"], counters["exactlin.rows"])
    out["adiabatic.nfev"] = counters["adiabatic.nfev"] * per_round
    out["adiabatic.steps"] = counters["adiabatic.steps"] * per_round
    out["adiabatic.nfev_per_step"] = _ratio(counters["adiabatic.nfev"], counters["adiabatic.steps"])
    out["adiabatic.evolve_calls"] = calls["adiabatic.evolve_mode"] * per_round
    out["casimir.quad_calls"] = calls["casimir.quad"] * per_round
    out["cli.output_bytes"] = counters["cli.output_bytes"] * per_round
    return out


def layer_time(spans: list[list]) -> float:
    """Total self time charged to layer categories (bookkeeping excluded)."""
    own = self_times(spans)
    return sum(own[i] for i in range(len(spans)) if _category(spans, i) is not None)
