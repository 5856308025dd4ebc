"""Outside-in tracer: spans around the public calls into each sarmanov layer.

``Tracer.install`` replaces each traced function, method or classmethod of
the package with a wrapper that records a span (name, start, end, parent
span, trace id) and updates counters, everywhere the original object is
bound in the package's modules; ``uninstall`` puts the originals back. The
program's files are never changed. Spans stay in memory until the run ends.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans (calls here are nested and run in
one thread, so children never overlap).
"""

from __future__ import annotations

import time
import types
from collections import Counter, defaultdict

import numpy as np

MODULES = ("", ".bernoulli", ".calibration", ".cli", ".config", ".copula",
           ".kernels", ".measures", ".numerics", ".sampling")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (trace_id, span_id, parent_id, name, start, end)
        self.counters: Counter = Counter()
        self.enabled = False
        self.trace_id = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (self.trace_id, span_id, parent, name, start, end)

    def count(self, key: str, value) -> None:
        if self.enabled:
            self.counters[key] += int(value)

    def wrap(self, name, fn, before=None):
        """``name`` is a layer name or a function of the call's arguments."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None and tracer.enabled:
                before(*args, **kwargs)
            span = name(*args, **kwargs) if callable(name) else name
            return tracer.call(span, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- patching ------------------------------------------------------------

    def _patch_everywhere(self, modules, original, replacement) -> None:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, attr, name, before=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, before))
        else:
            new = self.wrap(name, raw, before)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, new)

    def install(self, sm) -> None:
        """Wrap the public surface of every sarmanov layer."""
        import importlib

        mods = [importlib.import_module("sarmanov" + m) for m in MODULES]
        bern, cal, cop, meas = sm.bernoulli, sm.calibration, sm.copula, sm.measures
        tr = self

        def everywhere(obj, name, before=None):
            self._patch_everywhere(mods, obj, self.wrap(name, obj, before))

        # config
        self._patch_method(sm.CopulaConfig, "from_json", "config.from_json")
        self._patch_method(sm.CopulaConfig, "from_dict", "config.from_json")
        self._patch_method(sm.CopulaConfig, "build", "config.build")
        # kernels
        everywhere(sm.kernels.catalog_lookup, "kernels.catalog_lookup")
        everywhere(sm.kernels.custom_kernel, "kernels.custom_kernel")
        # calibration
        everywhere(cal.calibrate_from_kernel, "calibration.calibrate")
        everywhere(cal.explicit_pair, "calibration.explicit_pair")

        def quantile_route(pair, which, q):
            inv = pair.F0_inv if which == 0 else pair.F1_inv
            return "calibration.quantile_analytic" if inv is not None else "calibration.quantile_numeric"

        def count_draws(pair, which, q):
            inv = pair.F0_inv if which == 0 else pair.F1_inv
            key = "calibration.draws_analytic" if inv is not None else "calibration.draws_numeric"
            tr.count(key, np.size(q))

        everywhere(cal.component_quantile, quantile_route, count_draws)
        original_bisect = cal.bisect_cdf

        def bisect_counted(F, q, *args, **kwargs):
            def F_counted(u):
                tr.count("calibration.F_points", np.size(u))
                return F(u)
            return original_bisect(F_counted, q, *args, **kwargs)

        self._patch_everywhere(mods, original_bisect, bisect_counted)
        # bernoulli
        for cls in (bern.FullPmfSpec, bern.BivariateThetaSpec, bern.ExchangeableSumSpec,
                    bern.IndependentSpec, bern.ComonotoneSpec):
            self._patch_method(cls, "admissibility_check", "bernoulli.admissibility")
        everywhere(bern.admissibility_check, "bernoulli.admissibility")
        for cls, attr in ((bern.BernoulliSpec, "thetas_by_mask"), (bern.IndependentSpec, "thetas_by_mask"),
                          (bern.BernoulliSpec, "mixed_moment"), (bern.ExchangeableSumSpec, "theta_k_exact")):
            self._patch_method(cls, attr, "bernoulli.thetas")
        self._patch_method(bern.BernoulliSpec, "sample", "bernoulli.index_draw")
        everywhere(bern.sample_indices, "bernoulli.index_draw")
        # sampling
        everywhere(sm.sampling.sample, "sampling.sample")
        everywhere(sm.sampling.sample_powered, "sampling.powered")
        # copula
        self._patch_method(cop.SarmanovCopula, "cdf", "copula.cdf",
                           lambda self_, u: tr.count("copula.cdf_points",
                                                     np.shape(u)[0] if np.ndim(u) == 2 else 1))
        self._patch_method(cop.PoweredCopula, "cdf_points", "copula.cdf",
                           lambda self_, pts: tr.count("copula.cdf_points", np.shape(pts)[0]))
        everywhere(cop.d_increasing_oracle, "copula.oracle",
                   lambda cdf, d, grid_n, *a, **k: tr.count("copula.oracle_cells", grid_n ** d))
        # measures
        everywhere(meas.empirical_measures, "measures.empirical",
                   lambda batch, *a, **k: tr.count("measures.rows", batch.rows.shape[0]))
        for f in (meas.spearman_analytic, meas.kendall_analytic, meas.orthant_rho, meas.tail_dependence):
            everywhere(f, "measures.analytic")
        stats = meas.stats
        proxy = types.SimpleNamespace(spearmanr=self.wrap("measures.spearman", stats.spearmanr),
                                      kendalltau=self.wrap("measures.kendall", stats.kendalltau))
        self._restore.append((meas, "stats", stats))
        meas.stats = proxy
        # cli
        everywhere(sm.cli.main, "cli")

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    # -- reporting -----------------------------------------------------------

    def self_times(self, trace_ids) -> dict[str, float]:
        """Per-layer self time over the spans of the given trace ids."""
        wanted = set(trace_ids)
        spans = [s for s in self.spans if s is not None and s[0] in wanted]
        child = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for _, span_id, _, name, start, end in spans:
            out[name] += (end - start) - child[span_id]
        return dict(out)

    def dump(self) -> list[dict]:
        keys = ("trace", "span", "parent", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans if s is not None]
