"""Benchmark-side tracing of the pmpdas layers.

The tracer wraps public functions and methods of each pmpdas module from
outside the package: a wrapped function records one span (name, start,
end, parent span, round id) per call. A module-level function is replaced
in every pmpdas module that imported it by name, so calls such as
`kzg.verify_single -> pairing_check` are seen as well. Nothing under
`src/` is edited; `uninstall` puts the original objects back.

Spans are kept in memory and written out by the caller at the end of the
run. `summarize` turns them into per-layer metrics: call counts,
inclusive busy time (nested calls of the same layer are not counted
twice) and self time (span time not covered by a child span).
"""

from __future__ import annotations

import collections
import sys
import time

# (layer name, module, attribute path). Each is wrapped with a span.
SPAN_TARGETS = (
    ("fields.final_exponentiation", "pmpdas.fields", "final_exponentiation"),
    ("curve.pairing_check", "pmpdas.curve", "pairing_check"),
    ("curve.G1Point.from_bytes", "pmpdas.curve", "G1Point.from_bytes"),
    ("curve.g1_mul", "pmpdas.curve", "G1Point.__mul__"),
    ("curve.g1_mul", "pmpdas.curve", "G1Point.__rmul__"),
    ("curve.g1_msm", "pmpdas.curve", "g1_msm"),
    ("curve.g2_msm", "pmpdas.curve", "g2_msm"),
    ("field_poly.div_rem", "pmpdas.field_poly", "div_rem"),
    ("field_poly.interpolate", "pmpdas.field_poly", "interpolate"),
    ("field_poly.evaluate_on_domain", "pmpdas.field_poly",
     "evaluate_on_domain"),
    ("kzg.gen", "pmpdas.kzg", "gen"),
    ("kzg.commit", "pmpdas.kzg", "commit"),
    ("kzg.open_single", "pmpdas.kzg", "open_single"),
    ("kzg.verify_single", "pmpdas.kzg", "verify_single"),
    ("kzg.verify_batch_independent", "pmpdas.kzg",
     "verify_batch_independent"),
    ("multiproof.open_shared", "pmpdas.multiproof", "open_shared"),
    ("multiproof.verify_shared", "pmpdas.multiproof", "verify_shared"),
    ("multiproof.derive_gamma", "pmpdas.multiproof", "derive_gamma"),
    ("grid.build_grid", "pmpdas.grid", "build_grid"),
    ("wire.encode", "pmpdas.wire", "MCell.to_bytes"),
    ("wire.encode", "pmpdas.wire", "BaselineCell.to_bytes"),
    ("wire.encode", "pmpdas.wire", "GCellBlock.to_bytes"),
    ("wire.decode", "pmpdas.wire", "MCell.from_bytes"),
    ("wire.decode", "pmpdas.wire", "BaselineCell.from_bytes"),
    ("wire.decode", "pmpdas.wire", "GCellBlock.from_bytes"),
    ("dasnet.build_objects", "pmpdas.dasnet", "build_objects"),
    ("dasnet.put", "pmpdas.dasnet", "SimDht.put"),
    ("dasnet.get", "pmpdas.dasnet", "SimDht.get"),
    ("dasnet.get", "pmpdas.dasnet", "SimDht.get_with_retries"),
    ("dasnet.sample_and_verify", "pmpdas.dasnet", "sample_and_verify"),
)

# Called too often for a span each (the key rescans): counted only.
COUNT_TARGETS = (
    ("grid.iter_groups", "pmpdas.grid", "iter_groups"),
    ("dasnet.cell_key", "pmpdas.dasnet", "cell_key"),
)

# Layers reported with calls, busy time and self time. kzg.gen and
# dasnet.build_objects are reported differently, see `summarize`;
# dasnet.verify is the verification a cache miss runs.
TIMED_LAYERS = tuple(dict.fromkeys(
    layer for layer, _, _ in SPAN_TARGETS
    if layer not in ("kzg.gen", "dasnet.build_objects"))) + ("dasnet.verify",)

ARMS = ("vanilla", "batched", "grouped", "pmp")


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "pmpdas" or name.startswith("pmpdas.")]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, round id]
        self.counts = collections.Counter()
        self.round = "setup"
        self._stack = []
        self._patches = []  # (owner, attribute, original object)

    # -- recording ---------------------------------------------------------

    def _spanned(self, fn, name, after=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            index = len(spans)
            span = [span_name, clock(), 0.0, stack[-1] if stack else -1,
                    self.round]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, name):
        counts = self.counts
        key = name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- hooks for the layers that report more than calls and time ----------

    def _after_msm(self, args, result):
        self.counts["curve.g1_msm.points"] += len(args[0])

    def _after_get(self, args, result):
        if isinstance(result, tuple):  # get_with_retries
            self.counts["dasnet.get.attempts"] += result[1]
        else:
            self.counts["dasnet.get.attempts"] += 1

    def _after_sample(self, args, outcome):
        for key, value in outcome.counters.as_dict().items():
            self.counts["kzg.ops." + key] += value
        for status in outcome.statuses.values():
            self.counts["dasnet.status." + status.value] += 1

    def _cache_check(self, original):
        tracer = self

        def check(cache, cache_key, verify_fn):
            missed = []

            def verify(counters):
                missed.append(True)
                return verify_span(counters)

            verify_span = tracer._spanned(verify_fn, "dasnet.verify")
            result = original(cache, cache_key, verify)
            tracer.counts["dasnet.cache.misses" if missed
                          else "dasnet.cache.hits"] += 1
            return result

        check.__wrapped__ = original
        return check

    # -- patching ----------------------------------------------------------

    def _replace(self, owner, attribute, value):
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def _patch_function(self, module_name, attribute, make):
        original = getattr(sys.modules[module_name], attribute)
        wrapper = make(original)
        for module in _program_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, name, wrapper)

    def _patch_method(self, module_name, path, make):
        class_name, attribute = path.split(".")
        cls = getattr(sys.modules[module_name], class_name)
        raw = vars(cls)[attribute]
        if isinstance(raw, staticmethod):
            self._replace(cls, attribute, staticmethod(make(raw.__func__)))
        else:
            self._replace(cls, attribute, make(raw))

    def install(self):
        after = {
            "curve.g1_msm": self._after_msm,
            "dasnet.get": self._after_get,
            "dasnet.sample_and_verify": self._after_sample,
        }
        for layer, module_name, path in SPAN_TARGETS:
            name = layer
            if layer == "dasnet.build_objects":
                def name(args):
                    return "dasnet.build_objects." + args[1].value

            def make(fn, name=name, hook=after.get(layer)):
                return self._spanned(fn, name, hook)

            if "." in path:
                self._patch_method(module_name, path, make)
            else:
                self._patch_function(module_name, path, make)
        for layer, module_name, path in COUNT_TARGETS:
            self._patch_function(module_name, path,
                                 lambda fn, layer=layer:
                                 self._counted(fn, layer))
        self._patch_method("pmpdas.dasnet", "VerificationCache.check",
                           self._cache_check)

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def span_records(self):
        """Spans as dicts, for the span sink."""
        return [{"id": i, "name": name, "start": start, "end": end,
                 "parent": parent, "round": round_id}
                for i, (name, start, end, parent, round_id)
                in enumerate(self.spans)]

    def summarize(self) -> dict:
        """Per-layer metrics from the recorded spans and counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        calls = collections.Counter()
        busy = collections.Counter()
        self_time = collections.Counter()
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = _layer_of(name)
            calls[layer] += 1
            self_time[layer] += (end - start) - child_time[i]
            if not _inside_same_layer(spans, parent, layer):
                busy[layer] += end - start
                if layer != name:
                    busy[name] += end - start

        out = {}
        for layer in TIMED_LAYERS:
            out[layer + ".calls"] = calls[layer]
            out[layer + ".ms"] = busy[layer] * 1e3
            out[layer + ".self_ms"] = self_time[layer] * 1e3
        out["kzg.gen.ms"] = busy["kzg.gen"] * 1e3
        for arm in ARMS:
            out["dasnet.build_objects.ms." + arm] = \
                busy["dasnet.build_objects." + arm] * 1e3
        out["dasnet.build_objects.self_ms"] = \
            self_time["dasnet.build_objects"] * 1e3
        for key in ("curve.g1_msm.points", "dasnet.get.attempts",
                    "grid.iter_groups.calls", "dasnet.cell_key.calls",
                    "dasnet.cache.hits", "dasnet.cache.misses",
                    "kzg.ops.g1_mults", "kzg.ops.g2_mults",
                    "kzg.ops.pairings", "kzg.ops.interpolations",
                    "dasnet.status.verified", "dasnet.status.fetch_failed",
                    "dasnet.status.verify_failed"):
            out[key] = self.counts[key]
        lookups = out["dasnet.cache.hits"] + out["dasnet.cache.misses"]
        out["dasnet.cache.hit_ratio"] = \
            out["dasnet.cache.hits"] / lookups if lookups else 0.0
        return out


def _layer_of(name: str) -> str:
    if name.startswith("dasnet.build_objects."):
        return "dasnet.build_objects"
    return name


def _inside_same_layer(spans, parent, layer) -> bool:
    while parent >= 0:
        if _layer_of(spans[parent][0]) == layer:
            return True
        parent = spans[parent][3]
    return False


# Per-layer metrics that are exact counts: two traced runs of the same
# work must agree on every one of them.
def exact_counts(layer_metrics: dict) -> dict:
    return {k: v for k, v in layer_metrics.items()
            if not (k.endswith((".ms", ".self_ms")) or ".ms." in k)}
