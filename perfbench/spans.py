"""Spans around the calls into each geodens layer, recorded from outside.

``Tracer.install()`` replaces each traced function, in every geodens module
that holds a reference to it, with a wrapper that records a span: its name,
start and end times, its parent span and the request it belongs to.  Spans
stay in memory, in flat arrays, until the run ends.  Self time is a span's
duration minus the time its direct child spans cover.  ``uninstall()`` puts
the original functions back, so untraced requests run the unmodified code.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# layers named <module>.<function>; the attribute hooks record the counts
# that make up the extra per-layer metrics
LAYERS = (
    "cli.main",
    "scene.load_scene",
    "geometry.intersect",
    "geometry.chart_invert",
    "geometry.frames_at",
    "product.inner_product",
    "product.product_at_point",
    "states.pair_with_test",
    "linalg.dual_normal_frame",
    "linalg.change_of_basis",
    "linalg.det_abs_pow",
    "exprlang.jacobian",
    "exprlang.evaluate",
    "quadrature.integrate",
    "quadrature.tensor_rule",
    "quadrature.composite_rule",
    "quadrature.weighted_sum",
    "oracle.mollify",
    "oracle.smooth_pair",
)

_ATTRS = {
    # (args, result) -> recorded value
    "geometry.intersect": lambda args, out: len(out.points),
    "quadrature.tensor_rule": lambda args, out: (int(args[1]), len(out[1])),
    "quadrature.composite_rule": lambda args, out: len(out[1]),
    "quadrature.weighted_sum": lambda args, out: int(args[1].shape[0]),
    "product.inner_product": lambda args, out: args[2].dim,
}


class Tracer:
    def __init__(self):
        self.layers = LAYERS
        self.kind = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, object] = {}
        self.request_id = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrapper(self, kind: int, fn, attr):
        kinds, parents, requests = self.kind, self.parent, self.request
        starts, ends, attrs, stack = self.start, self.end, self.attrs, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1])
            requests.append(tracer.request_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if attr is not None:
                attrs[idx] = attr(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every layer in every geodens module that imports it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "geodens" or name.startswith("geodens."))]
        for kind, layer in enumerate(self.layers):
            mod_name, fn_name = layer.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"geodens.{mod_name}"), fn_name)
            wrapper = self._wrapper(kind, fn, _ATTRS.get(layer))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # analysis ------------------------------------------------------------

    def arrays(self):
        kind = np.frombuffer(self.kind, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        return kind, parent, start, end

    def self_times(self) -> np.ndarray:
        kind, parent, start, end = self.arrays()
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur - covered

    def _ancestor(self, idx: int, kind: int) -> int:
        p = self.parent[idx]
        while p >= 0 and self.kind[p] != kind:
            p = self.parent[p]
        return p

    def summary(self, requests: int) -> dict:
        """Per-request means of every layer's calls and self time, plus counts."""
        kind, _, _, _ = self.arrays()
        self_s = self.self_times()
        k = {layer: i for i, layer in enumerate(self.layers)}
        per = max(requests, 1)
        out = {}
        for layer, i in k.items():
            mask = kind == i
            out[f"{layer}.calls"] = int(mask.sum()) / per
            out[f"{layer}.self_s"] = float(self_s[mask].sum()) / per

        def attr_sum(layer, pick=lambda v: v):
            return sum(pick(v) for idx, v in self.attrs.items() if kind[idx] == k[layer])

        out["geometry.intersect.points"] = attr_sum("geometry.intersect") / per
        out["quadrature.tensor_rule.nodes"] = attr_sum("quadrature.tensor_rule", lambda v: v[1]) / per
        out["quadrature.weighted_sum.nodes"] = attr_sum("quadrature.weighted_sum") / per
        out["quadrature.composite_rule.nodes"] = attr_sum("quadrature.composite_rule") / per
        levels = [i for i in np.flatnonzero(kind == k["quadrature.tensor_rule"])
                  if self.parent[i] >= 0 and kind[self.parent[i]] == k["quadrature.integrate"]]
        out["quadrature.integrate.levels"] = len(levels) / per
        return out

    def final_orders(self) -> dict[int, int]:
        """How many integrate calls stopped at each order."""
        k_int = self.layers.index("quadrature.integrate")
        k_rule = self.layers.index("quadrature.tensor_rule")
        last: dict[int, int] = {}
        for idx, value in self.attrs.items():
            if self.kind[idx] == k_rule and self.parent[idx] >= 0 \
                    and self.kind[self.parent[idx]] == k_int:
                last[self.parent[idx]] = max(last.get(self.parent[idx], 0), value[0])
        hist: dict[int, int] = {}
        for order in last.values():
            hist[order] = hist.get(order, 0) + 1
        return dict(sorted(hist.items()))

    def one_dim_inner_counts(self) -> list[tuple[int, int]]:
        """For each inner product over a 1-D intersection: (product_at_point
        calls, weighted_sum nodes) made inside it."""
        k_inner = self.layers.index("product.inner_product")
        k_point = self.layers.index("product.product_at_point")
        k_sum = self.layers.index("quadrature.weighted_sum")
        counts = {idx: [0, 0] for idx, dim in self.attrs.items()
                  if self.kind[idx] == k_inner and dim == 1}
        if not counts:
            return []
        kind = np.frombuffer(self.kind, dtype=np.int32)
        for idx in np.flatnonzero((kind == k_point) | (kind == k_sum)):
            owner = self._ancestor(int(idx), k_inner)
            if owner in counts:
                if kind[idx] == k_point:
                    counts[owner][0] += 1
                else:
                    counts[owner][1] += self.attrs[int(idx)]
        return [tuple(v) for v in counts.values()]

    def save(self, path) -> None:
        kind, parent, start, end = self.arrays()
        np.savez_compressed(path, layers=np.array(self.layers), kind=kind, parent=parent,
                            request=np.frombuffer(self.request, dtype=np.int32),
                            start=start, end=end)
