"""Command-line frontend: decompose, knit, dims, intersect, resolve,
presentation, and the paper-anchored verification suites.

Exit codes: 0 success, 1 domain/verification failure, 2 usage error.
JSON output is canonical (sorted keys, fixed separators) so that parsing
and re-serialising a result is byte-identical.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Callable

from . import fixtures
from .dynkin import _INTEGER, DynkinType, ExtDynkinType, _require_extended, parse_type
from .errors import DomainError, InternalInconsistency
from .intersection import intersection_matrix, smooth_resolution
from .knitting import extract_maps, knit, render_pattern
from .pathalg import (MembershipCertificate, check_certificate, format_element,
                      graded_dims_pi, hom_matrix, verify_zero_product)
from .singularity import descriptor, q_lambda_decompose, translation_permutation
from .typea import presentation
from .weights import (Weight, _check_length, classify_weight, format_field_elem,
                      format_weight, parse_weight)


# a subcommand's text output, made only when --format text asks for it
Lines = Callable[[], list[str]]


def to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cert_record(cert: MembershipCertificate) -> dict:
    """Structured record: element and (coef, left, vertex, right) terms."""
    return {
        "element": format_element(cert.element),
        "weight": format_weight(cert.weight),
        "terms": [{"coef": format_field_elem(c), "left": str(u),
                   "vertex": v, "right": str(w)}
                  for c, u, v, w in cert.terms],
    }


def _weight_for(t: ExtDynkinType, text: str | None) -> Weight:
    if text is None:
        raise DomainError("--weights is required for this command")
    w = parse_weight(text)
    _check_length(t, w)
    return w


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(args) -> tuple[int, dict, Lines]:
    t = _require_extended(parse_type(args.type))
    w = _weight_for(t, args.weights)
    wc = classify_weight(t, w)
    d = q_lambda_decompose(t, w)
    pi = translation_permutation(d).permutation.as_dict()
    desc = descriptor(d)
    data = {
        "type": str(t),
        "weights": format_weight(w),
        "class": {"commutative": wc.commutative, "quasi_dominant": wc.quasi_dominant,
                  "dominant": wc.dominant, "singular": wc.singular, "smooth": wc.smooth},
        "i_lambda": list(d.i_lambda),
        "components": [{"type": str(dt), "vertices": list(vs),
                        "canonical": {str(v): c for v, c in sorted(m.items())}}
                       for dt, vs, m in d.components],
        "descriptor": list(desc.types),
        "translation": {str(v): img for v, img in sorted(pi.items())},
    }

    def lines() -> list[str]:
        out = [f"type {t}  weights {format_weight(w)}",
               "class: " + ", ".join(k for k, v in data["class"].items() if v),
               f"I_lambda = {data['i_lambda']}"]
        for comp in data["components"]:
            out.append(f"  component {comp['type']} on vertices {comp['vertices']}")
        out.append(f"descriptor {desc}")
        out.append("translation " + " ".join(f"{v}->{img}" for v, img in sorted(pi.items())))
        return out
    return 0, data, lines


def cmd_knit(args) -> tuple[int, dict, Lines]:
    t = _require_extended(parse_type(args.type))
    s = args.S
    r = knit(t, s, args.target)
    data = {
        "type": str(t),
        "S": sorted(s),
        "target": r.target,
        "kernel": r.kernel,
        "multiplicities": {str(j): a for j, a in sorted(r.multiplicities.items())},
        "pattern": [list(cell) for cell in r.sparse()],
    }
    if args.maps:
        m = extract_maps(r)
        data["maps"] = {"resolved": False, "psi": None, "phi": None, "certificates": None}
        if m.resolved:
            data["maps"] = {
                "resolved": True,
                "psi": [format_element(x) for x in m.psi],
                "phi": [format_element(x) for x in m.phi],
                "certificates": [_cert_record(c) for c in m.report.certificates],
            }

    def lines() -> list[str]:
        mult = sorted(r.multiplicities.items())
        out = [f"type {t}  S {sorted(s)}  target {r.target}",
               f"kernel vertex {r.kernel}",
               "multiplicities " + " ".join(f"V{j}^{a}" for j, a in mult if a)]
        if args.ascii:
            out.append(render_pattern(r))
        if args.maps:
            maps = data["maps"]
            if maps["resolved"]:
                out.append("psi: " + " | ".join(maps["psi"]))
                out.append("phi: " + " | ".join(maps["phi"]))
            else:
                out.append("maps unresolved: no certified psi/phi pair")
        return out
    return 0, data, lines


def cmd_dims(args) -> tuple[int, dict, Lines]:
    t = parse_type(args.type)
    dims, total = graded_dims_pi(t)
    h = hom_matrix(t)
    data = {"type": str(t), "graded_dims": list(dims), "total": total,
            "hom_matrix": [list(r) for r in h],
            "vertex_dims": [sum(r) for r in h]}

    def lines() -> list[str]:
        out = [f"dim Pi({t}) = {total}",
               "graded dims " + " ".join(str(d) for d in dims),
               "dim U_i     " + " ".join(str(d) for d in data["vertex_dims"]),
               "hom matrix:"]
        for row in h:
            out.append("  " + " ".join(f"{x:4d}" for x in row))
        return out
    return 0, data, lines


def cmd_intersect(args) -> tuple[int, dict, Lines]:
    t = _require_extended(parse_type(args.type))
    g = intersection_matrix(t)
    data = {"type": str(t), "vertices": list(g.vertices),
            "gamma": [list(r) for r in g.entries]}

    def lines() -> list[str]:
        return ([f"intersection matrix of {t} on vertices {list(g.vertices)} (equals -C):"]
                + ["  " + " ".join(f"{x:3d}" for x in row) for row in g.entries])
    return 0, data, lines


def cmd_resolve(args) -> tuple[int, dict, Lines]:
    t = _require_extended(parse_type(args.type))
    res = smooth_resolution(t)
    data = {"type": str(t), "mu": format_weight(res.mu),
            "reflections": list(res.reflections),
            "gamma": [list(r) for r in res.gamma.entries]}
    return 0, data, lambda: [
        f"mu = {data['mu']}",
        f"reflections (apply left to right from eps_0): {data['reflections']}",
        f"gamma = -C confirmed on vertices {list(res.gamma.vertices)}"]


def cmd_presentation(args) -> tuple[int, dict, Lines]:
    t = _require_extended(parse_type(args.type))
    if t.family != "A":
        raise DomainError("presentation is defined for type ~A only")
    w = _weight_for(t, args.weights)
    p = presentation(t.n, w)
    data = {"n": p.n, "shift": format_field_elem(p.shift),
            "xy": [format_field_elem(c) for c in p.xy],
            "yx": [format_field_elem(c) for c in p.yx]}
    return 0, data, lambda: [
        f"xz = (z + {data['shift']}) x,  yz = (z - {data['shift']}) y",
        "xy coefficients (ascending): " + " ".join(data["xy"]),
        "yx coefficients (ascending): " + " ".join(data["yx"])]


# ---------------------------------------------------------------------------
# verification suites


def _suite_dims() -> list[tuple[str, bool, str]]:
    out = []
    types = ([DynkinType("A", n) for n in range(1, 9)]
             + [DynkinType("D", n) for n in range(4, 9)]
             + [DynkinType("E", n) for n in (6, 7, 8)])
    for t in types:
        _, total = graded_dims_pi(t)
        h = hom_matrix(t)
        n = t.n
        ok = (total == fixtures.dim_pi_total(t)
              and all(sum(h[i - 1]) == fixtures.dim_vertex_module(t, i)
                      for i in range(1, n + 1)))
        if t.family == "A":
            ok = ok and all(h[i - 1][j - 1] == fixtures.erdmann_a_entry(n, i, j)
                            for i in range(1, n + 1) for j in range(1, n + 1))
        if t.family == "E":
            ok = ok and h == fixtures.H_E[n]
        out.append((f"dims-{t}", ok, f"total {total}"))
    return out


def _suite_knitting() -> list[tuple[str, bool, str]]:
    out = []
    for f in fixtures.worked_example_fixtures() + fixtures.golden_knit_fixtures():
        try:
            r = knit(f.type, f.s_vertices, f.target)
            ok = r.kernel == f.kernel and r.middle_multiset() == f.middle
            msg = f"kernel {r.kernel} middle {list(r.middle_multiset())}"
        except DomainError as exc:
            ok, msg = False, str(exc)
        out.append((f"knit-{f.fixture_id}", ok, msg))
    return out


def _suite_maps() -> list[tuple[str, bool, str]]:
    out = []
    for fx in fixtures.MAP_FIXTURES:
        psi, phi = fx.matrices()
        for label, w in (("zero", fx.zero_weight()), ("component", fx.component_weight())):
            rep = verify_zero_product(fx.type, w, psi, phi)
            ok = rep.ok and all(check_certificate(fx.type, c) for c in rep.certificates)
            nterms = sum(len(c.terms) for c in rep.certificates) if rep.ok else 0
            out.append((f"maps-{fx.fixture_id}-{label}", ok,
                        f"{nterms} certificate terms" if ok else "no certificate"))
    return out


def _suite_intersection() -> list[tuple[str, bool, str]]:
    out = []
    types = ([ExtDynkinType("A", n) for n in range(2, 9)]
             + [ExtDynkinType("D", n) for n in range(4, 9)]
             + [ExtDynkinType("E", n) for n in (6, 7, 8)])
    for t in types:
        try:
            intersection_matrix(t)
            out.append((f"intersection-{str(t)[1:]}", True, "gamma = -C"))
        except (DomainError, InternalInconsistency) as exc:
            out.append((f"intersection-{str(t)[1:]}", False, str(exc)))
    return out


def cmd_verify(args) -> tuple[int, dict, Lines]:
    suites = {"dims": _suite_dims, "knitting": _suite_knitting,
              "maps": _suite_maps, "intersection": _suite_intersection}
    scopes = list(suites) if args.suite == "all" else [args.suite]
    results: list[tuple[str, bool, str]] = []
    for scope in scopes:
        results.extend(suites[scope]())
    results.sort(key=lambda r: r[0])
    failures = sum(1 for _, ok, _ in results if not ok)
    data = {"results": [{"id": fid, "ok": ok, "detail": msg} for fid, ok, msg in results],
            "passed": len(results) - failures, "failed": failures}

    def lines() -> list[str]:
        return ([f"{'PASS' if ok else 'FAIL'} {fid}: {msg}" for fid, ok, msg in results]
                + [f"{data['passed']}/{len(results)} fixtures passed"])
    return (1 if failures else 0), data, lines


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _integer(text: str) -> int | None:
    """text as an int when it is an ASCII integer that int() takes, else None."""
    if re.fullmatch(_INTEGER, text.strip()) is None:
        return None
    try:
        return int(text)
    except ValueError:  # int() takes at most sys.get_int_max_str_digits() digits
        return None


def _vertex(text: str) -> int:
    if (v := _integer(text)) is None:
        raise argparse.ArgumentTypeError(f"expected a vertex index, got {text!r}")
    return v


def _vertex_set(text: str) -> frozenset[int]:
    vs = [_integer(p) for p in text.split(",")]
    if None in vs:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated vertex indices, got {text!r}")
    return frozenset(vs)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="preproj",
        description="Exact computation with deformed preprojective algebras "
                    "of extended Dynkin quivers.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, weights=False):
        p.add_argument("--type", required=True, help='e.g. "~D5" (extended) or "D5"')
        p.add_argument("--format", choices=("text", "json"), default="text")
        if weights:
            p.add_argument("--weights", help='comma-separated entries, e.g. "0,1/2,0,1"')

    p = sub.add_parser("decompose", help="Q_lambda components, descriptor, translation")
    common(p, weights=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("knit", help="run the knitting algorithm")
    common(p)
    p.add_argument("--S", required=True, type=_vertex_set,
                   help='comma-separated S vertices, e.g. "0,5"')
    p.add_argument("--target", type=_vertex, required=True)
    p.add_argument("--ascii", action="store_true", help="render the pattern grid")
    p.add_argument("--maps", action="store_true", help="extract and certify the maps")
    p.set_defaults(func=cmd_knit)

    p = sub.add_parser("dims", help="graded dimensions and Hom matrix of Pi(Q)")
    common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("intersect", help="noncommutative intersection matrix")
    common(p)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("resolve", help="reflection word to a smooth deformation")
    common(p)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("presentation", help="type-A generators and relations")
    common(p, weights=True)
    p.set_defaults(func=cmd_presentation)

    p = sub.add_parser("verify", help="run the paper-anchored fixture suites")
    p.add_argument("--suite", choices=("dims", "knitting", "maps", "intersection", "all"),
                   default="all")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)
    return ap


def dispatch(argv: list[str]) -> tuple[int, str]:
    """Parse, run and render; returns (exit code, output).

    Each subcommand returns (code, data, lines); the output is the
    canonical JSON of data under --format json and the text that lines()
    makes otherwise, so JSON output never builds the text.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (int(exc.code) if exc.code else 0), ""
    try:
        code, data, lines = args.func(args)
        output = to_json(data) if args.format == "json" else "\n".join(lines())
    except DomainError as exc:
        return 1, f"error: {exc}"
    except InternalInconsistency as exc:
        return 1, f"internal inconsistency: {exc}"
    return code, output


def main(argv: list[str] | None = None) -> int:
    code, output = dispatch(sys.argv[1:] if argv is None else argv)
    if output:
        to_stderr = code == 1 and output.startswith(("error:", "internal inconsistency:"))
        print(output, file=sys.stderr if to_stderr else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
