"""Spans around calls into each layer of the program, recorded from outside it.

The tracer replaces public functions and methods of the `qspecies` modules
with wrappers while it is enabled, and puts the originals back when it is
disabled, so untraced requests run the program unchanged.  Each call becomes
one span (id, group, parent span, request, start, end), recorded when the
call returns; a span's self time is its duration minus the time its child
spans cover.  Totals per metric group are kept for every call.  Span records
are held in memory until `flush` appends them to the span file, so every
span is written and memory stays bounded by one request's spans.

A wrapped object is replaced everywhere the package holds it, which is what
makes spans complete:

* operators bound as class-body aliases (`__mul__ = product`, `__add__ =
  disjoint_union`, `__neg__ = negate`) are the same function object as the
  named method, so both slots are patched;
* functions imported by name (`egf_of` in `cli`, `numbers` and `verify`,
  `format_rational` in four modules) are patched at every import site;
* dispatch tables (`verify.SUITES`) are patched in place.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (layer, metric group, owner path, attribute).  The owner path names a
# module or a class in one; every alias of the attribute is patched.
TARGETS = [
    ("cli", "cli.main", "qspecies.cli", "main"),
    ("expr", "expr.parse_build", "qspecies.expr", "parse"),
    ("expr", "expr.parse_build", "qspecies.expr", "build"),
    ("species", "species.value", "qspecies.species:Species", "value"),
    ("species", "species.egf_of", "qspecies.species", "egf_of"),
    ("numbers", "numbers.formula", "qspecies.numbers", "bernoulli_formula"),
    ("numbers", "numbers.species_route", "qspecies.numbers", "generalized_bernoulli_species"),
    ("numbers", "numbers.species_route", "qspecies.numbers", "bernoulli_species"),
    ("numbers", "numbers.species_route", "qspecies.numbers", "bernoulli_poly_species"),
    ("numbers", "numbers.species_route", "qspecies.numbers", "euler_species"),
    ("numbers", "numbers.species_route", "qspecies.numbers", "euler_poly_species"),
    ("numbers", "numbers.series_route", "qspecies.numbers", "generalized_bernoulli_series"),
    ("numbers", "numbers.series_route", "qspecies.numbers", "bernoulli_series"),
    ("numbers", "numbers.series_route", "qspecies.numbers", "bernoulli_poly_series"),
    ("numbers", "numbers.series_route", "qspecies.numbers", "euler_series"),
    ("numbers", "numbers.series_route", "qspecies.numbers", "euler_poly_series"),
    ("numbers", "numbers.oracle", "qspecies.numbers", "bernoulli_recurrence"),
    ("numbers", "numbers.oracle", "qspecies.numbers", "bernoulli_poly_classical"),
    ("numbers", "numbers.oracle", "qspecies.numbers", "euler_recurrence"),
    ("numbers", "numbers.oracle", "qspecies.numbers", "euler_poly_recurrence"),
    ("verify", "verify.valuation", "qspecies.verify", "valuation_suite"),
    ("verify", "verify.inverse", "qspecies.verify", "inverse_suite"),
    ("verify", "verify.quotient", "qspecies.verify", "quotient_suite"),
    ("verify", "verify.factorial", "qspecies.verify", "factorial_suite"),
    ("numeric", "numeric.format", "qspecies.numeric", "format_rational"),
    ("numeric", "numeric.other", "qspecies.numeric", "multinomial"),
    ("numeric", "numeric.other", "qspecies.numeric", "rising_factorial"),
    ("numeric", "numeric.other", "qspecies.numeric", "falling_factorial"),
    ("groupoid", "groupoid.action", "qspecies.groupoid:GroupAction", "__init__"),
    ("groupoid", "groupoid.action", "qspecies.groupoid:GroupAction", "from_generators"),
    ("groupoid", "groupoid.action", "qspecies.groupoid:GroupAction", "symmetric"),
    ("groupoid", "groupoid.action", "qspecies.groupoid:GroupAction", "cyclic"),
    ("groupoid", "groupoid.quotient", "qspecies.groupoid", "quotient"),
    ("groupoid", "groupoid.quotient", "qspecies.groupoid", "power_quotient"),
    ("groupoid", "groupoid.other", "qspecies.groupoid", "increasing_factorial"),
]
for _cls in ("FiniteGroupoid", "GradedGroupoid"):
    _owner = "qspecies.groupoid:" + _cls
    TARGETS += [
        ("groupoid", "groupoid.product", _owner, "product"),
        ("groupoid", "groupoid.union", _owner, "disjoint_union"),
        ("groupoid", "groupoid.union", _owner, "union_all"),
        ("groupoid", "groupoid.replicate", _owner, "replicate"),
    ]
TARGETS.append(("groupoid", "groupoid.other", "qspecies.groupoid:GradedGroupoid", "negate"))
for _name, _group in (
    ("mul", "egf.mul"),
    ("reciprocal", "egf.reciprocal"),
    ("compose", "egf.compose"),
    ("add", "egf.other"),
    ("sub", "egf.other"),
    ("scalar_mul", "egf.other"),
    ("divide", "egf.other"),
    ("derivative", "egf.other"),
    ("hadamard", "egf.other"),
    ("keep_below", "egf.other"),
    ("monomial_div", "egf.other"),
    ("extract_polynomials", "egf.other"),
    ("to_pairs", "egf.other"),
):
    TARGETS.append(("egf", _group, "qspecies.egf:TruncatedEGF", _name))
for _name in ("one_series", "exp_series", "diagonal_series", "promote_series"):
    TARGETS.append(("egf", "egf.other", "qspecies.egf", _name))

LAYERS = ("cli", "expr", "species", "groupoid", "egf", "numbers", "verify", "numeric")
SPAN_FIELDS = (("id", "i"), ("group", "H"), ("parent", "i"), ("request", "i"), ("start", "d"), ("end", "d"))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_s", "s"), ("_bits", "bits"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _unwrap(obj):
    return obj.__func__ if isinstance(obj, (staticmethod, classmethod)) else obj


def _rewrap(like, fn):
    return type(like)(fn) if isinstance(like, (staticmethod, classmethod)) else fn


class Tracer:
    def __init__(self, path: str):
        """Span records are appended to `path`.spans, described by `path`.json."""
        self.path = path
        self.spill = open(path + ".spans", "wb")
        self.chunks: list[int] = []
        self.groups: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.self_time: list[float] = []
        self.active: list[int] = []
        self.spans = [array(code) for _, code in SPAN_FIELDS]
        self.spans_total = 0
        self.stack: list[list] = []
        self.request = -1
        self.components_out = 0
        self.max_mult_bits = 0
        self.action_elements = 0
        # (namespace, key, original, wrapped) for every place a target is held
        self.patches: list[tuple] = []

    def _group(self, layer: str, group: str) -> int:
        if group not in self.groups:
            self.groups.append(group)
            self.layer_of.append(layer)
            for acc, zero in ((self.calls, 0), (self.inclusive, 0.0), (self.self_time, 0.0), (self.active, 0)):
                acc.append(zero)
        return self.groups.index(group)

    def _observe_groupoid(self, args, result) -> None:
        parts = getattr(result, "parts", None)  # FiniteGroupoid results only
        if parts is None:
            return
        self.components_out += len(parts)
        for _, count in parts:
            bits = count.bit_length()
            if bits > self.max_mult_bits:
                self.max_mult_bits = bits

    def _observe_action(self, args, result) -> None:
        self.action_elements += len(args[0])

    def _wrap(self, fn, gid: int, observe):
        tracer, stack, clock = self, self.stack, time.perf_counter
        calls, inclusive, self_time, active = self.calls, self.inclusive, self.self_time, self.active
        ids, groups, parents, requests, starts, ends = self.spans

        def traced(*args, **kwargs):
            depth = active[gid]
            active[gid] = depth + 1
            idx = tracer.spans_total
            tracer.spans_total = idx + 1
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[gid] = depth
                duration = end - start
                calls[gid] += 1
                self_time[gid] += duration - frame[1]
                if depth == 0:
                    inclusive[gid] += duration
                ids.append(idx)
                groups.append(gid)
                requests.append(tracer.request)
                starts.append(start)
                ends.append(end)
                if stack:
                    stack[-1][1] += duration
                    parents.append(stack[-1][0])
                else:
                    parents.append(-1)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        """Find every place the package holds a target and build its wrapper."""
        modules = [m for name, m in sys.modules.items() if name == "qspecies" or name.startswith("qspecies.")]
        for layer, group, owner, attr in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            holder = sys.modules[mod_name]
            if cls_name:
                holder = getattr(holder, cls_name)
                original = _unwrap(holder.__dict__[attr])
            else:
                original = getattr(holder, attr)
            observe = None
            if group in ("groupoid.product", "groupoid.union", "groupoid.replicate"):
                observe = self._observe_groupoid
            elif group == "groupoid.action" and attr == "__init__":
                observe = self._observe_action
            wrapped = self._wrap(original, self._group(layer, group), observe)
            if cls_name:
                for name, value in list(vars(holder).items()):
                    if _unwrap(value) is original:
                        self.patches.append((holder, name, value, _rewrap(value, wrapped)))
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self.patches.append((module, name, value, wrapped))
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                self.patches.append((value, key, item, wrapped))

    def _apply(self, which: int) -> None:
        for holder, key, *values in self.patches:
            if isinstance(holder, dict):
                holder[key] = values[which]
            else:
                setattr(holder, key, values[which])

    def enable(self) -> None:
        self._apply(1)

    def disable(self) -> None:
        """Put every original back; the program then runs exactly as untraced."""
        self._apply(0)

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers; names match BENCHMARK.json's per_layer list."""
        index = {group: i for i, group in enumerate(self.groups)}

        def incl(group):
            return self.inclusive[index[group]]

        def calls(group):
            return self.calls[index[group]]

        out = {
            "numbers.formula_s": incl("numbers.formula"),
            "numbers.species_route_s": incl("numbers.species_route"),
            "numbers.series_route_s": incl("numbers.series_route"),
            "numbers.oracle_s": incl("numbers.oracle"),
            "groupoid.product_calls": calls("groupoid.product"),
            "groupoid.product_s": incl("groupoid.product"),
            "groupoid.union_calls": calls("groupoid.union"),
            "groupoid.union_s": incl("groupoid.union"),
            "groupoid.replicate_s": incl("groupoid.replicate"),
            "groupoid.components_out": self.components_out,
            "groupoid.max_mult_bits": self.max_mult_bits,
            "species.value_calls": calls("species.value"),
            "species.egf_of_s": incl("species.egf_of"),
            "groupoid.action_s": incl("groupoid.action"),
            "groupoid.action_elements": self.action_elements,
            "groupoid.quotient_s": incl("groupoid.quotient"),
            "verify.quotient_s": incl("verify.quotient"),
            "verify.valuation_s": incl("verify.valuation"),
            "verify.inverse_s": incl("verify.inverse"),
            "verify.factorial_s": incl("verify.factorial"),
            "egf.mul_s": incl("egf.mul"),
            "egf.reciprocal_s": incl("egf.reciprocal"),
            "egf.compose_s": incl("egf.compose"),
            "egf.calls": sum(c for c, layer in zip(self.calls, self.layer_of) if layer == "egf"),
            "numeric.format_calls": calls("numeric.format"),
            "numeric.format_s": incl("numeric.format"),
            "expr.parse_build_s": incl("expr.parse_build"),
        }
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                t for t, owner in zip(self.self_time, self.layer_of) if owner == layer
            )
        return out

    def group_self_times(self) -> dict[str, float]:
        return dict(zip(self.groups, self.self_time))

    def flush(self) -> None:
        """Append the span records held in memory to the span file, as one chunk."""
        count = len(self.spans[0])
        if not count:
            return
        for arr in self.spans:
            arr.tofile(self.spill)
            del arr[:]
        self.chunks.append(count)

    def close(self) -> None:
        """Write out the last spans and the header that describes the span file."""
        self.flush()
        self.spill.close()
        header = {
            "groups": self.groups,
            "layers": self.layer_of,
            "spans_total": self.spans_total,
            "byteorder": sys.byteorder,
            "fields": [[name, code, array(code).itemsize] for name, code in SPAN_FIELDS],
            "chunks": self.chunks,
            "layout": "one chunk after another; a chunk of n spans holds each field's n values in turn",
            "parent": "id of the enclosing span, -1 for a request root",
        }
        with open(self.path + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)
