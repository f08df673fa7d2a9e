"""Per-layer spans around rsjd's public entry points, installed at run time.

The package is not edited: ``install()`` replaces every binding of each
entry point inside the loaded ``rsjd`` modules with a timing wrapper, patches
``RowTruncator.rows`` on the class, and makes ``resolve_model`` hand out
specs whose coefficient callables are wrapped too.  A span's self time is its
duration minus the spans opened inside it and their bookkeeping, so the self
times of all layers add up to the traced wall time of the commands less the
tracer's own cost.

Layers are the package modules: cli, config, analysis, simulate, coupling,
generator, model (spec callables and ``RowTruncator.rows``) and linalg
(``rsjd._linalg``).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

# module -> (layer, extra private entry points wrapped besides __all__)
_MODULES = {
    "rsjd.cli": ("cli", ("run",)),
    "rsjd.analysis": ("analysis", ()),
    "rsjd.simulate": ("simulate", ("_compensator_quadrature",)),
    "rsjd.coupling": ("coupling", ()),
    "rsjd.generator": ("generator", ()),
    "rsjd.model": ("model", ()),
    "rsjd._linalg": ("linalg", ("sqrt_psd_batched",)),
}
_COEFF_FIELDS = ("drift", "sigma", "jump_coeff", "jump_compensator", "small_jump_cov")
_MEASURE_COEFF_FIELDS = ("large_jump_rate", "large_jump_sampler", "c_second_moment")
LAYERS = ("cli", "config", "analysis", "simulate", "coupling", "generator", "model", "linalg")


class Tracer:
    """Span bookkeeping for one process: inclusive time and calls per span
    name, self time per layer, and counters recorded at the boundaries."""

    def __init__(self):
        self._open = []                   # child-time accumulators of open spans
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = defaultdict(float)
        self._switch_h = []               # step of each open switching ensemble

    def wrap(self, name: str, layer: str, fn, before=None, after=None):
        """Time ``fn`` as span ``name`` of ``layer``.  ``before(args, kwargs)``
        runs ahead of the span and its result goes to ``after(state, out)``,
        which runs once the span closed; neither is charged to any layer."""
        perf = time.perf_counter
        opened = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_book = perf()
            state = before(args, kwargs) if before is not None else None
            out = None
            child = [0.0]
            opened.append(child)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf()
                opened.pop()
                dt = t1 - t0
                self.inclusive[name] += dt
                self.calls[name] += 1
                self.self_time[layer] += dt - child[0]
                if after is not None:
                    after(state, out)
                if opened:
                    # neither the callee nor the bookkeeping around it is
                    # the caller's own work
                    opened[-1][0] += perf() - t_book
        return wrapper

    # -- counters recorded at layer boundaries ------------------------------

    def _ensemble_before(self, sig, n_name):
        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            nsteps, h = bound.arguments["cfg"].grid()
            switching = bound.arguments.get("switching", True)
            self._switch_h.append(h if switching else None)
            return int(bound.arguments[n_name]) * nsteps
        return before

    def _ensemble_after(self, counter):
        def after(steps, out):
            self._switch_h.pop()
            self.counts[counter] += steps
        return after

    def _rows_after(self, state, out):
        if out is None:
            return
        q = out[0]
        n, L = q.shape
        self.counts["rows_entries"] += n * L
        self.counts["rows_level_max"] = max(self.counts["rows_level_max"], L)
        h = self._switch_h[-1] if self._switch_h else None
        if h is not None:
            self.counts["rows_fire_sum"] += float(np.sum(-np.expm1(-q.sum(axis=1) * h)))
            self.counts["rows_fire_rows"] += n

    @staticmethod
    def _points(per_point_axis: bool):
        def before(args, kwargs):
            a = np.asarray(args[0])
            if per_point_axis and a.ndim:
                return a.size // a.shape[-1]
            return max(a.size, 1)
        return before

    def _add_points(self, points, out):
        self.counts["density_points"] += points

    # -- model specs --------------------------------------------------------

    def wrap_spec(self, spec):
        """Copy of ``spec`` whose coefficient and mark-density callables are spans."""
        fields = {f: self.wrap("model.coeff", "model", getattr(spec, f))
                  for f in _COEFF_FIELDS if getattr(spec, f) is not None}
        meas = spec.jump_measure
        if meas is not None:
            mfields = {f: self.wrap("model.coeff", "model", getattr(meas, f))
                       for f in _MEASURE_COEFF_FIELDS if getattr(meas, f) is not None}
            mfields["density"] = self.wrap("model.density", "model", meas.density,
                                           self._points(True), self._add_points)
            if meas.radial_density is not None:
                mfields["radial_density"] = self.wrap("model.density", "model",
                                                      meas.radial_density,
                                                      self._points(False), self._add_points)
            fields["jump_measure"] = dataclasses.replace(meas, **mfields)
        return dataclasses.replace(spec, **fields)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from rsjd import config, coupling, model, simulate

        wrapped = {}
        for modname, (layer, extra) in _MODULES.items():
            mod = importlib.import_module(modname)
            names = tuple(getattr(mod, "__all__", ())) + extra
            for name in names:
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == modname:
                    wrapped[fn] = self.wrap(f"{layer}.{name}", layer, fn)

        resolve = self.wrap("config.resolve_model", "config", config.resolve_model)
        wrapped[config.resolve_model] = lambda ref: self.wrap_spec(resolve(ref))

        sim = simulate.simulate_ensemble
        wrapped[sim] = self.wrap(
            "simulate.simulate_ensemble", "simulate", self._hooked(sim),
            self._ensemble_before(inspect.signature(sim), "n_paths"),
            self._ensemble_after("path_steps"))
        cpl = coupling.couple_ensemble
        wrapped[cpl] = self.wrap(
            "coupling.couple_ensemble", "coupling", cpl,
            self._ensemble_before(inspect.signature(cpl), "n_pairs"),
            self._ensemble_after("pair_steps"))

        for mod in [m for n, m in sys.modules.items() if n == "rsjd" or n.startswith("rsjd.")]:
            for name, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    setattr(mod, name, wrapped[value])
        model.RowTruncator.rows = self.wrap("model.rows", "model", model.RowTruncator.rows,
                                            after=self._rows_after)

    def _hooked(self, sim):
        """simulate_ensemble whose per-step hook (the caller's code) is a span
        of the analysis layer."""
        def run(*args, **kwargs):
            hook = kwargs.get("step_hook")
            if hook is not None:
                kwargs["step_hook"] = self.wrap("analysis.step_hook", "analysis", hook)
            return sim(*args, **kwargs)
        return run

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        inc, calls, c = self.inclusive, self.calls, self.counts
        density_calls = calls["model.density"]
        out = {
            "model.rows_s": inc["model.rows"],
            "model.rows_calls": calls["model.rows"],
            "model.rows_entries": c["rows_entries"],
            "model.rows_level_max": c["rows_level_max"],
            "model.rows_fire_frac": (c["rows_fire_sum"] / c["rows_fire_rows"]
                                     if c["rows_fire_rows"] else 0.0),
            "model.density_s": inc["model.density"],
            "model.density_calls": density_calls,
            "model.density_points_per_call": (c["density_points"] / density_calls
                                              if density_calls else 0.0),
            "model.coeff_s": inc["model.coeff"],
            "model.coeff_calls": calls["model.coeff"],
            "simulate.ensemble_s": inc["simulate.simulate_ensemble"],
            "simulate.path_steps": c["path_steps"],
            "simulate.comp_quad_s": inc["simulate._compensator_quadrature"],
            "simulate.comp_quad_calls": calls["simulate._compensator_quadrature"],
            "coupling.ensemble_s": inc["coupling.couple_ensemble"],
            "coupling.pair_steps": c["pair_steps"],
            "generator.apply_s": inc["generator.apply_generator"],
            "generator.points": calls["generator.apply_generator"],
            "linalg.sqrt_psd_s": inc["linalg.sqrt_psd_batched"],
            "config.resolve_s": inc["config.resolve_model"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
        return out


def install() -> Tracer:
    tracer = Tracer()
    tracer.install()
    return tracer
