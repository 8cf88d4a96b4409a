"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each preproj module, and a
few named methods, in every module namespace that binds them (a name bound
by ``from .x import y`` in three modules is patched in all three).  Spans
are timed and nest: a span's self time is its duration minus the time of
the spans it encloses.  The scalar operations are only counted, because
they run millions of times and timing each would swamp the run.  Totals are
kept in memory and read out once with ``Tracer.report``.
"""
from __future__ import annotations

import importlib
import inspect
from time import perf_counter

# prefix of the line on which a traced cli process reports its totals
TRACE_MARK = "perfbench-trace "
LAYERS = ("dynkin", "weights", "pathalg", "knitting", "singularity",
          "intersection", "typea", "cli")

# (module, class, method, timed): methods traced besides module functions
METHODS = (
    ("dynkin", "LabelledDoubleQuiver", "arrow", True),
    ("pathalg", "QuotientModel", "extend_to", True),
    ("pathalg", "QuotientModel", "nf", True),
    ("pathalg", "QuotientModel", "certificate", True),
    ("pathalg", "QuotientModel", "_build_layer", False),
    ("pathalg", "QuotientModel", "nf_path", False),
    ("pathalg", "QuotientModel", "is_zero", False),
)
# the scalar of the weights layer; both operand orders are counted together
SCALAR_OPS = {"mul": ("__mul__", "__rmul__"), "add": ("__add__", "__radd__"),
              "div": ("__truediv__", "__rtruediv__")}


def bit_size(x) -> int:
    """Largest numerator/denominator bit length of a FieldElem."""
    return max(x.re.numerator.bit_length(), x.re.denominator.bit_length(),
               x.im.numerator.bit_length(), x.im.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.calls: dict[str, list] = {}   # name -> [calls, self seconds]
        self.extra = {"pathalg.layers_built": 0, "pathalg.basis_elems": 0,
                      "pathalg.certificate_terms": 0, "pathalg.coef_max_bits": 0,
                      "pathalg.greedy_hits": 0, "knitting.assignments_tried": 0,
                      "knitting.resolved": 0, "weights.reflection_word_len": 0}
        self.sites: dict[str, list] = {}   # "name@module" -> [calls through that binding]
        self.stack: list[float] = []       # child time of each open span
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- wrappers ----------------------------------------------------------

    def cell(self, name: str) -> list:
        return self.calls.setdefault(name, [0, 0.0])

    def span(self, name: str, fn, after=None, site: str | None = None):
        cell, stack = self.cell(name), self.stack
        hits = self.sites.setdefault(site or name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            hits[0] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                cell[1] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn, after=None):
        cell = self.cell(name)
        if after is None:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                result = fn(*args, **kwargs)
                after(result, args)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that read results at the layer boundary ----------------------

    def hooks(self):
        extra = self.extra

        def built(_, args):
            extra["pathalg.layers_built"] += 1
            extra["pathalg.basis_elems"] += len(args[0].layers[-1])

        cert_calls = self.cell("pathalg.certificate")
        member_state = []

        def member_before(fn):
            def wrapped(*args, **kwargs):
                member_state.append(cert_calls[0])
                try:
                    return fn(*args, **kwargs)
                finally:
                    if cert_calls[0] == member_state.pop():
                        extra["pathalg.greedy_hits"] += 1
            return wrapped

        def member(result, _):
            terms = getattr(result, "terms", None)
            if terms:
                extra["pathalg.certificate_terms"] += len(terms)
                extra["pathalg.coef_max_bits"] = max(
                    extra["pathalg.coef_max_bits"], max(bit_size(c) for c, *_ in terms))

        is_zero = self.cell("pathalg.is_zero")
        maps_state = []

        def maps_before(fn):
            def wrapped(*args, **kwargs):
                maps_state.append(is_zero[0])
                try:
                    return fn(*args, **kwargs)
                finally:
                    extra["knitting.assignments_tried"] += is_zero[0] - maps_state.pop()
            return wrapped

        def maps(result, _):
            extra["knitting.resolved"] += bool(result.resolved)

        def reflections(result, _):
            # quasi_dominantize returns (weight, word), resolve_to_smooth (word, weight)
            first, second = result
            extra["weights.reflection_word_len"] += len(first if isinstance(first, list) else second)

        return {"pathalg._build_layer": (built, None),
                "pathalg.ideal_member": (member, member_before),
                "knitting.extract_maps": (maps, maps_before),
                "weights.quasi_dominantize": (reflections, None),
                "weights.resolve_to_smooth": (reflections, None)}

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("preproj")
        mods = {layer: importlib.import_module(f"preproj.{layer}") for layer in LAYERS}
        namespaces = [pkg] + [importlib.import_module(f"preproj.{m}")
                              for m in ("errors", "fixtures")] + list(mods.values())
        hooks = self.hooks()
        for layer, mod in mods.items():
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{fname}"
                after, around = hooks.get(name, (None, None))
                inner = around(fn) if around else fn
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            site = f"{name}@{ns.__name__.rpartition('.')[2]}"
                            self.patch(ns, bound, self.span(name, inner, after, site))
        for layer, cls_name, meth, timed in METHODS:
            cls = getattr(mods[layer], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            name = f"{layer}.{meth}"
            if fn is None:
                self.missing.append(f"{layer}.{cls_name}.{meth}")
                continue
            after, _ = hooks.get(name, (None, None))
            self.patch(cls, meth, (self.span if timed else self.counter)(name, fn, after))
        scalar = mods["weights"].FieldElem
        for op, dunders in SCALAR_OPS.items():
            for dunder in dunders:
                fn = scalar.__dict__.get(dunder)
                if fn is not None:
                    self.patch(scalar, dunder, self.counter(f"weights.FieldElem.{op}", fn))

    def patch(self, owner, attr: str, wrapper) -> None:
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- read-out ----------------------------------------------------------

    def report(self) -> dict:
        """Totals per traced name, calls per binding site, and the counts
        read from results at the layer boundaries."""
        return {"calls": {k: v[0] for k, v in sorted(self.calls.items())},
                "self_s": {k: v[1] for k, v in sorted(self.calls.items())},
                "sites": {k: v[0] for k, v in sorted(self.sites.items()) if "@" in k},
                "extra": dict(self.extra), "missing": list(self.missing)}
