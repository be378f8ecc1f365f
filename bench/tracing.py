"""Per-layer tracing from outside the library.

install() replaces the functions and methods that make up each layer with
wrappers that record a span (name, start, end, parent span, job).  A
function is patched in every module that imported it, so cli.ph_grid and
persistence.kernel_basis are traced as well as their definitions.  Two cache
lookups are counted rather than timed: a lookup misses when the work it
guards ran inside it.

Spans stay in memory and are written out once, when the traced pass ends.
"""

import functools
import gzip
import json
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "enriched_ph"

# span name -> the functions and methods it covers, as (module, qualname)
LAYERS = {
    "cli.load": [("cli", n) for n in (
        "_load_json", "_load_dataset", "_load_incarnation",
        "_load_dataset_or_incarnation", "_load_seo_maps")],
    "cli.emit": [("cli", "_emit"), ("cli", "_write_text")],
    "core.find": [("core", "DataSet.find")],
    "core.contains": [("core", "DataSet.__contains__")],
    "core.pseudometric": [("core", "DataSet.pseudometric")],
    "actions.enumerate": [("actions", "enumerate_end"), ("actions", "enumerate_aut")],
    "actions.is_operation": [("actions", "is_operation")],
    "actions.incarnation": [("actions", "Incarnation.__init__")],
    "actions.analysis": [("actions", "blocks"), ("actions", "find_basis"), ("actions", "dimension")],
    "operators.validate_seo": [("operators", "validate_seo")],
    "operators.extend_from_basis": [("operators", "extend_from_basis")],
    "operators.decompose": [("operators", "decompose")],
    "operators.find_seo_realization": [("operators", "find_seo_realization")],
    "ggraph.build_graph": [("ggraph", "build_graph")],
    "ggraph.functor_verify": [("ggraph", "GraphFunctor.verify")],
    "persistence.ph_grid": [("persistence", "ph_grid")],
    "persistence.vr_complex": [("persistence", "vr_complex")],
    "persistence.homology": [("persistence", "HomologySpace.__init__")],
    "persistence.induced_map": [("persistence", "induced_map")],
    "persistence.verify": [
        ("persistence", "BigradedPersistence.verify_squares"),
        ("persistence", "GridMap.is_natural"),
    ],
    "persistence.interleave_upper": [("persistence", "interleave_upper")],
    "persistence.slice_barcode": [("persistence", "slice_barcode")],
    "persistence.bottleneck": [("persistence", "bottleneck_distance")],
    "persistence.ph_functor": [("persistence", "ph_functor")],
    "persistence.vertexmap_matrix": [("persistence", "PHEvaluator.vertexmap_matrix")],
    "linalg.solver_add": [("linalg", "ColumnSolver.add")],
    "linalg.solver_coords": [("linalg", "ColumnSolver.coords")],
    "linalg.kernel_basis": [("linalg", "kernel_basis")],
    "linalg.rank": [("linalg", "ModMatrix.rank")],
    "linalg.matmul": [("linalg", "ModMatrix.__matmul__")],
}

# counted cache: (method, span whose calls inside a lookup mark a miss)
CACHES = {
    "persistence.homology_cache": (("persistence", "PHEvaluator.homology"), "persistence.homology"),
    "persistence.inclusion_cache": (
        ("persistence", "PHEvaluator.inclusion_matrix"), "persistence.induced_map"),
}

# Per-layer metrics in the order they are printed, with unit and direction.
# Names ending in .self_s or .calls come straight from the spans.
METRICS = [
    ("cli.load.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.emit.bytes", "bytes", "lower"),
    ("core.find.calls", "count", "lower"),
    ("core.find.self_s", "s", "lower"),
    ("core.contains.calls", "count", "lower"),
    ("core.contains.self_s", "s", "lower"),
    ("core.pseudometric.self_s", "s", "lower"),
    ("actions.enumerate.calls", "count", "lower"),
    ("actions.enumerate.self_s", "s", "lower"),
    ("actions.is_operation.calls", "count", "lower"),
    ("actions.enumerate.yield_ratio", "ratio", "higher"),
    ("actions.incarnation.calls", "count", "lower"),
    ("actions.incarnation.self_s", "s", "lower"),
    ("actions.analysis.self_s", "s", "lower"),
    ("operators.validate_seo.calls", "count", "lower"),
    ("operators.validate_seo.self_s", "s", "lower"),
    ("operators.extend_from_basis.self_s", "s", "lower"),
    ("operators.decompose.self_s", "s", "lower"),
    ("operators.find_seo_realization.self_s", "s", "lower"),
    ("ggraph.build_graph.self_s", "s", "lower"),
    ("ggraph.functor_verify.self_s", "s", "lower"),
    ("persistence.ph_grid.calls", "count", "lower"),
    ("persistence.ph_grid.self_s", "s", "lower"),
    ("persistence.vr_complex.calls", "count", "lower"),
    ("persistence.vr_complex.self_s", "s", "lower"),
    ("persistence.vr_complex.simplices", "count", "lower"),
    ("persistence.homology.calls", "count", "lower"),
    ("persistence.homology.self_s", "s", "lower"),
    ("persistence.homology_cache.hit_ratio", "ratio", "higher"),
    ("persistence.induced_map.calls", "count", "lower"),
    ("persistence.induced_map.self_s", "s", "lower"),
    ("persistence.inclusion_cache.lookups", "count", "lower"),
    ("persistence.inclusion_cache.hit_ratio", "ratio", "higher"),
    ("persistence.verify.self_s", "s", "lower"),
    ("persistence.interleave_upper.self_s", "s", "lower"),
    ("persistence.certificate.triangles", "count", "higher"),
    ("persistence.certificate.squares", "count", "higher"),
    ("persistence.slice_barcode.calls", "count", "lower"),
    ("persistence.slice_barcode.self_s", "s", "lower"),
    ("persistence.bottleneck.calls", "count", "lower"),
    ("persistence.bottleneck.self_s", "s", "lower"),
    ("persistence.ph_functor.self_s", "s", "lower"),
    ("persistence.vertexmap_matrix.calls", "count", "lower"),
    ("linalg.solver_add.calls", "count", "lower"),
    ("linalg.solver_add.self_s", "s", "lower"),
    ("linalg.solver_coords.calls", "count", "lower"),
    ("linalg.solver_coords.self_s", "s", "lower"),
    ("linalg.kernel_basis.self_s", "s", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.self_s", "s", "lower"),
    ("linalg.matmul.calls", "count", "lower"),
    ("linalg.matmul.self_s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
]


def _emitted_bytes(args, kwargs):
    """Size of the output file; every benchmark job names one."""
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path) if path else 0


# span name -> hook(counts, result, args, kwargs) run after the call returns
AFTER = {
    "cli.emit": lambda c, res, a, k: c.update({"cli.emit.bytes": _emitted_bytes(a, k)}),
    "actions.enumerate": lambda c, res, a, k: c.update({"actions.enumerate.found": len(res)}),
    "persistence.vr_complex": lambda c, res, a, k: c.update(
        {"persistence.vr_complex.simplices": sum(len(v) for v in res.simplices.values())}),
    "persistence.interleave_upper": lambda c, res, a, k: c.update({
        "persistence.certificate.triangles": res.certificate["triangles"],
        "persistence.certificate.squares": res.certificate["squares"],
    }),
}


class Tracer:
    """Spans as [name, start, end, parent index, job]; parent -1 is a root."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = -1
        self._stack = []

    def wrap(self, name, fn, after=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, result, args, kwargs)
            return result

        return traced

    def count_lookups(self, cache, fn, miss_span):
        spans, counts = self.spans, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = len(spans)
            result = fn(*args, **kwargs)
            counts[cache + ".lookups"] += 1
            if any(s[0] == miss_span for s in spans[before:]):
                counts[cache + ".misses"] += 1
            return result

        return counted

    def run_job(self, index, fn, *args):
        """Call fn under a root span named "job" carrying the job index."""
        self.job = index
        return self.wrap("job", fn)(*args)

    def install(self):
        for name, targets in LAYERS.items():
            for module, qualname in targets:
                _patch(module, qualname, lambda fn, n=name: self.wrap(n, fn, AFTER.get(n)))
        for cache, ((module, qualname), miss_span) in CACHES.items():
            _patch(module, qualname, lambda fn, c=cache, m=miss_span: self.count_lookups(c, fn, m))

    def write(self, path):
        """Gzipped JSON: a traced pass holds some 10^5-10^6 spans."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}, fh)


def _patch(module, qualname, make):
    """Replace a function everywhere the package binds it, or a method on its class."""
    mod = sys.modules[f"{PACKAGE}.{module}"]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, attr, make(cls.__dict__[attr]))
        return
    original = getattr(mod, qualname)
    wrapped = make(original)
    for name, other in list(sys.modules.items()):
        if other is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            for attr, value in list(vars(other).items()):
                if value is original:
                    setattr(other, attr, wrapped)


def self_times(spans) -> dict:
    """Per name: total duration minus the part of each span its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(float)
    for i, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start) - covered
    return dict(out)


def exact_counts(tracer: Tracer) -> dict:
    """Everything that must repeat exactly for one seed: calls and counters."""
    calls = Counter(span[0] + ".calls" for span in tracer.spans)
    calls.update(tracer.counts)
    return dict(sorted(calls.items()))


def layer_metrics(tracer: Tracer) -> dict:
    counts = exact_counts(tracer)
    selfs = self_times(tracer.spans)

    def hit_ratio(cache):
        lookups = counts.get(cache + ".lookups", 0)
        return 1.0 - counts.get(cache + ".misses", 0) / lookups if lookups else 0.0

    found, tried = counts.get("actions.enumerate.found", 0), counts.get("actions.is_operation.calls", 0)
    derived = {"actions.enumerate.yield_ratio": found / tried if tried else 0.0}
    derived.update({cache + ".hit_ratio": hit_ratio(cache) for cache in CACHES})
    out = {}
    for name, unit, _ in METRICS:
        if name == "trace_overhead_ratio":
            continue
        if name.endswith(".self_s"):
            value = selfs.get(name[: -len(".self_s")], 0.0)
        elif name in derived:
            value = derived[name]
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
