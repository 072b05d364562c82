"""Span tracing of geodisc's layers from outside the program.

`Tracer.install()` replaces the public functions of each module under
`src/geodisc/` with wrappers that record a span (name, start, end, parent
span, request id) in memory.  Where a module imported a function by name,
the name is replaced in that module too, e.g. `geodisc.pick.minkowski_many`
and `geodisc.certify.minkowski_many` beside `geodisc.domains.minkowski_many`.
Each Domain class's `defect_many` is counted, not timed.  Nothing in the
program changes; the wrappers only read the clock and append to lists.

A span's self time is its duration less the time its direct child spans
cover.  A layer's busy time is the summed duration of its outermost spans,
so a layer calling itself is not counted twice.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, layer, function name, module that defines it, modules that
# imported it by name).  `layer` names the busy-time bucket; None marks a
# library call that only counts against cli.main's self time.
FUNCTIONS = (
    ("domains.minkowski_many", "domains.minkowski_many", "minkowski_many", "domains", ("pick", "certify")),
    ("domains.boundary_samples", "domains.boundary_samples", "boundary_samples", "domains", ("certify",)),
    ("pick.falsify_weak_extremality", "pick.falsify_weak_extremality",
     "falsify_weak_extremality", "pick", ("cli",)),
    ("pick.classify_pick", "pick.classify_pick", "classify_pick", "pick", ("cli",)),
    ("cplane.blaschke_degree_of_data", "cplane", "blaschke_degree_of_data", "cplane", ("pick", "cli")),
    ("cplane.lagrange_polynomial", "cplane", "lagrange_polynomial", "cplane", ("pick", "cli")),
    ("certify.verify_left_inverse", "certify.verify_left_inverse", "verify_left_inverse", "certify", ("cli",)),
    ("certify.properness_profile", "certify.properness_profile", "properness_profile", "certify", ("cli",)),
) + tuple(
    (f"maps.{name}", "maps", name, "maps", ("certify", "cli"))
    for name in ("power_pair_map", "power_pair_geodesic", "squared_sum_triple_map",
                 "semilinear_triple_map", "ball_power_pair_map", "ball3_normal_form",
                 "ball3_equivalent_params", "ball3_solve_params", "ball3_verify_params"))

# (span name, layer, module, class, attribute) for methods and static methods
METHODS = (
    ("cplane.BlaschkeProduct.__call__", "cplane", "cplane", "BlaschkeProduct", "__call__"),
    ("mapspec.MapSpec.__call__", "mapspec", "mapspec", "MapSpec", "__call__"),
    ("mapspec.MapSpec.eval_many", "mapspec", "mapspec", "MapSpec", "eval_many"),
    ("mapspec.MultiPoly.__call__", "mapspec", "mapspec", "MultiPoly", "__call__"),
    ("lib.MapSpec.from_json", None, "mapspec", "MapSpec", "from_json"),
    ("lib.MultiPoly.from_json", None, "mapspec", "MultiPoly", "from_json"),
    ("lib.BlaschkeProduct.from_json", None, "cplane", "BlaschkeProduct", "from_json"),
    ("lib.ProfileResult.to_csv", None, "certify", "ProfileResult", "to_csv"),
)

DOMAIN_CLASSES = {"Ball": "ball", "Polydisc": "polydisc", "UnitDisc": "polydisc",
                  "Ellipsoid": "ellipsoid", "CustomGauge": "custom"}
GAUGE_KINDS = ("ball", "polydisc", "ellipsoid", "custom")


class Tracer:
    def __init__(self):
        self.names = []      # span name
        self.layers = []     # busy-time bucket or None
        self.starts = []
        self.ends = []
        self.parents = []    # index of the enclosing span, -1 at top level
        self.requests = []   # request id current when the span opened
        self.outer = []      # True if no enclosing span has the same layer
        self.tags = {}       # span index -> domain kind of a gauge call
        self.stack = []
        self.depth = Counter()
        self.counts = Counter()
        self.request = -1
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, layer, tag=None):
        names, layers, starts, ends = self.names, self.layers, self.starts, self.ends
        parents, requests, outer, stack, depth = (self.parents, self.requests, self.outer,
                                                  self.stack, self.depth)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            layers.append(layer)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            outer.append(depth[layer] == 0)
            starts.append(0.0)
            ends.append(0.0)
            if tag is not None:
                self.tags[idx] = tag(*args, **kwargs)
            stack.append(idx)
            depth[layer] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[layer] -= 1
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        traced._bench_traced = True
        return traced

    def _gauge_tag(self, dom, Z, *args, **kwargs):
        """Count a gauge call and its points; name the domain kind."""
        kind = DOMAIN_CLASSES.get(type(dom).__name__, "custom")
        self.counts["domains.minkowski_many.calls"] += 1
        self.counts["domains.minkowski_many.points"] += int(np.size(Z)) // dom.dim
        return kind

    def _count_defects(self, fn):
        counts, depth = self.counts, self.depth

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["domains.defect_many.calls"] += 1
            if depth["domains.minkowski_many"]:
                counts["domains.defect_many.in_gauge"] += 1
            return fn(*args, **kwargs)

        counted._bench_traced = True
        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layer boundaries; geodisc.cli must be importable."""
        mod = {m: importlib.import_module(f"geodisc.{m}")
               for m in ("cli", "certify", "cplane", "domains", "maps", "mapspec", "pick")}
        for name, layer, attr, home, importers in FUNCTIONS:
            tag = self._gauge_tag if name == "domains.minkowski_many" else None
            traced = self._wrap(getattr(mod[home], attr), name, layer, tag)
            for m in (home,) + importers:
                if attr in mod[m].__dict__:
                    self._set(mod[m], attr, traced)
        for name, layer, home, cls_name, attr in METHODS:
            cls = getattr(mod[home], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, name, layer)))
            else:
                self._set(cls, attr, self._wrap(raw, name, layer))
        for cls_name in DOMAIN_CLASSES:
            cls = getattr(mod["domains"], cls_name)
            self._set(cls, "defect_many", self._count_defects(cls.__dict__["defect_many"]))
        # every other library function the CLI calls directly, so that
        # cli.main's self time is the CLI's own work
        for attr, fn in list(vars(mod["cli"]).items()):
            if (callable(fn) and not isinstance(fn, type) and not getattr(fn, "_bench_traced", False)
                    and getattr(fn, "__module__", "").startswith("geodisc.")
                    and fn.__module__ != "geodisc.cli"):
                self._set(mod["cli"], attr, self._wrap(fn, f"lib.{attr}", None))
        self._set(mod["cli"], "main", self._wrap(mod["cli"].main, "cli.main", "cli.main"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        for lst in (self.names, self.layers, self.starts, self.ends, self.parents,
                    self.requests, self.outer):
            lst.clear()
        self.tags.clear()
        self.counts.clear()

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Busy and self times by span name and layer, plus the counts."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        self_s, busy = defaultdict(float), defaultdict(float)
        for i in range(n):
            self_s[self.names[i]] += dur[i] - child[i]
            if self.outer[i] and self.layers[i] is not None:
                busy[self.layers[i]] += dur[i]
                if i in self.tags:
                    busy[f"{self.layers[i]}.{self.tags[i]}"] += dur[i]
        return {"self_s": dict(self_s), "busy_s": dict(busy), "counts": dict(self.counts)}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": [[self.names[i], self.starts[i], self.ends[i],
                                  self.parents[i], self.requests[i]]
                                 for i in range(len(self.names))],
                       "gauge_kind": {str(k): v for k, v in self.tags.items()},
                       "counts": dict(self.counts)}, fh)
