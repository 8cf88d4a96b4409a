"""Independent brute-force oracles used to freeze expected test values,
the seeded input generator of the parser fuzz tests, and the helpers only
tests need: parsing printed elements, checking vertex permutations and the
Schedler configuration, and the singularity descriptor read off the root
system.

Everything here works from first principles (path enumeration, span ranks
over exact rationals) and never calls the layered engine it checks.  The
two reference loops, ``reference_fire`` and ``reference_presentation``,
play the numbers game and build the ~A presentation in field arithmetic on
the weight itself, one ``dual_reflection`` per firing, which the lattice
versions in the package must match exactly; ``reference_parse_field_elem``
parses each part of a field element with ``Fraction(str)``, which the
package's parser, on ints, must match exactly.
"""
from __future__ import annotations

import itertools
import re
from fractions import Fraction

from preproj.dynkin import _DIGITS, Arrow, build_extended, delta_vector
from preproj.errors import DomainError
from preproj.pathalg import Path, PathElement, multiply, parse_path, trivial_path
from preproj.weights import (FieldElem, ONE, Weight, ZERO, _canon, _make, dot_delta,
                             dual_reflection)


def unit(v):
    """The trivial path at v as an element."""
    return PathElement({trivial_path(v): ONE})


def paths_by_degree(quiver, maxdeg):
    out = {0: [trivial_path(v) for v in quiver.vertices]}
    for d in range(1, maxdeg + 1):
        out[d] = [p.then(a) for p in out[d - 1] for a in quiver.arrows_from(p.target)]
    return out


def walk(source, arrows):
    """(end vertex, length) of an arrow sequence walked from its source, or
    None when an arrow does not compose."""
    at, length = source, 0
    for a in arrows:
        if a.tail != at:
            return None
        at, length = a.head, length + 1
    return at, length


def as_pair(c):
    """A coefficient as an exact (re, im) pair of Fractions."""
    c = FieldElem.of(c)
    return (Fraction(c.re), Fraction(c.im))


def pair_product(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def element_pairs(x):
    """A PathElement as {(source, arrows): (re, im)}."""
    return {(p.source, p.arrows): as_pair(c) for p, c in x.terms.items()}


def brute_product(a, b):
    """a * b expanded term by term over (re, im) pairs, keyed by (source,
    arrows); a pair of paths contributes only when the first ends, by a
    walk, where the second starts, and sums that vanish are dropped."""
    out = {}
    for p, cp in a.terms.items():
        for q, cq in b.terms.items():
            if walk(p.source, p.arrows)[0] != q.source:
                continue
            key = (p.source, p.arrows + q.arrows)
            x, s = pair_product(as_pair(cp), as_pair(cq)), out.get(key, (0, 0))
            out[key] = (s[0] + x[0], s[1] + x[1])
    return {k: v for k, v in out.items() if v != (0, 0)}


def brute_scale(a, c):
    """c * a over (re, im) pairs, keyed by (source, arrows)."""
    out = {k: pair_product(x, as_pair(c)) for k, x in element_pairs(a).items()}
    return {k: v for k, v in out.items() if v != (0, 0)}


def rank_of_rows(rows):
    """Row rank over the field, dict-of-columns sparse elimination."""
    rank, pivots = 0, {}
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        while row:
            hit = sorted(set(row) & set(pivots))
            if not hit:
                pc = min(row)
                inv = ONE / row.pop(pc)
                pivots[pc] = {k: v * inv for k, v in row.items()}
                rank += 1
                break
            pc = hit[0]
            coef = row.pop(pc)
            for c2, v2 in pivots[pc].items():
                row[c2] = row.get(c2, ZERO) - coef * v2
            row = {k: v for k, v in row.items() if v}
    return rank


def quiver_relations(quiver, weight):
    """rho_v = sum_{t(a)=v} a.~a - sum_{h(a)=v} ~a.a - lambda_v e_v for every
    vertex, written out from the (index, tail, head) rows of the ordinary
    arrows; weight maps vertices to values, missing vertices read as 0."""
    terms = {v: {} for v in quiver.vertices}
    for o in quiver.ordinary_arrows:
        a, rev = Arrow(o.index, False, o.tail, o.head), Arrow(o.index, True, o.head, o.tail)
        terms[o.tail][Path(o.tail, (a, rev))] = ONE
        terms[o.head][Path(o.head, (rev, a))] = -ONE
    for v in quiver.vertices:
        terms[v][trivial_path(v)] = -FieldElem.of(weight.get(v, 0))
    return {v: PathElement(terms[v]) for v in quiver.vertices}


def oracle_relations(t, weight):
    """The relations of ~X_n at a Weight, without the engine's relation_set."""
    q = build_extended(t)
    return quiver_relations(q, {v: weight[v] for v in q.vertices})


def parse_element(quiver, text):
    """Parse the textual format emitted by preproj.pathalg.format_element."""
    text = text.strip()
    if text == "0":
        return PathElement()
    out = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coef_s, rest = chunk.split("*", 1)
        body, ends = rest.rsplit(":", 1)
        src = int(ends.split("->")[0])
        p = parse_path(quiver, body.strip(), source=src)
        out[p] = out.get(p, ZERO) + FieldElem.of(coef_s.strip())
    return PathElement(out)


def graded_ideal_span(quiver, degree):
    """Spanning elements u rho_v w of the given total degree at weight 0."""
    paths = paths_by_degree(quiver, degree)
    rels = quiver_relations(quiver, {})
    gens = []
    for a in range(0, max(degree - 1, 0)):
        b = degree - 2 - a
        for u in paths[a]:
            rel = rels[u.target]
            for w in paths[b]:
                if w.source != u.target:
                    continue
                gens.append(multiply(multiply(PathElement.of_path(u), rel),
                                     PathElement.of_path(w)))
    return paths[degree], gens


def brute_graded_dims(quiver, maxdeg):
    """dim of each graded piece of Pi(Q) at weight 0, by span ranks."""
    dims = []
    for d in range(maxdeg + 1):
        paths, gens = graded_ideal_span(quiver, d)
        index, rows = {}, []
        for g in gens:
            row = {index.setdefault(p, len(index)): c for p, c in g.terms.items()}
            if row:
                rows.append(row)
        dims.append(len(paths) - rank_of_rows(rows))
    return dims


def brute_graded_member(quiver, element):
    """Membership of a homogeneous element in the weight-0 graded ideal,
    decided by comparing span ranks with and without the element."""
    _, gens = graded_ideal_span(quiver, element.degree)
    return span_contains(gens, element)


def span_contains(gens, element):
    """Whether element lies in the span of gens, by comparing span ranks
    with and without it."""
    index, rows = {}, []
    for g in gens:
        rows.append({index.setdefault(p, len(index)): c for p, c in g.terms.items()})
    base = rank_of_rows(list(rows))
    extra = {index.setdefault(p, len(index)): c for p, c in element.terms.items()}
    return rank_of_rows(rows + [extra]) == base


def brute_filtered_member(quiver, weight, x):
    """Membership of x in the relation ideal of Pi^lambda, decided by span
    ranks: since gr Pi^lambda = Pi, the ideal's elements of filtration
    degree <= d are spanned by the u rho_v w with |u| + |w| + 2 <= d, and
    only those from x's source to x's target can contribute."""
    degree = x.degree
    paths = paths_by_degree(quiver, max(degree - 2, 0))
    rels = quiver_relations(quiver, weight)
    gens = []
    for a in range(degree - 1):
        for b in range(degree - 1 - a):
            for u in paths[a]:
                if u.source != x.source:
                    continue
                left = multiply(PathElement.of_path(u), rels[u.target])
                for w in paths[b]:
                    if w.source == u.target and w.target == x.target:
                        gens.append(multiply(left, PathElement.of_path(w)))
    return span_contains(gens, x)


def graph_automorphisms(adjacency: dict[int, tuple[int, ...]]) -> list[dict[int, int]]:
    """All adjacency-preserving bijections of a small graph (brute force)."""
    verts = sorted(adjacency)
    nbrs = {v: frozenset(adjacency[v]) for v in verts}
    autos = []
    for perm in itertools.permutations(verts):
        m = dict(zip(verts, perm))
        if all(frozenset(m[w] for w in nbrs[v]) == nbrs[m[v]] for v in verts):
            autos.append(m)
    return autos


def is_involution(perm) -> bool:
    """Whether a VertexPermutation squares to the identity."""
    m = perm.as_dict()
    return all(m[m[v]] == v for v in m)


def preserves(perm, adjacency: dict[int, tuple[int, ...]]) -> bool:
    """Whether a VertexPermutation maps the neighbours of each vertex in its
    domain onto the neighbours of the image (counted with multiplicity)."""
    m = perm.as_dict()
    return all(sorted(m[w] for w in adjacency[v] if w in m) == sorted(adjacency[m[v]])
               for v in m)


def brute_canonical_map(adjacency: dict[int, tuple[int, ...]],
                        canon: dict[int, tuple[int, ...]]) -> dict[int, int] | None:
    """The lexicographically smallest adjacency-preserving bijection from
    the vertices of one small graph onto those of another (brute force:
    permutations of the sorted labels come in lexicographic order)."""
    verts, labels = sorted(adjacency), sorted(canon)
    if len(verts) != len(labels):
        return None
    cn = {c: frozenset(canon[c]) for c in labels}
    for perm in itertools.permutations(labels):
        m = dict(zip(verts, perm))
        if all(frozenset(m[w] for w in adjacency[v]) == cn[m[v]] for v in verts):
            return m
    return None


def det_int(matrix: tuple[tuple[int, ...], ...]) -> int:
    """Determinant of a small integer matrix, exactly."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    num = det.numerator
    assert det.denominator == 1
    return num


def _poly_mul(a, b):
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def poly_shift(coeffs, shift):
    """Coefficients of p(z + shift) from those of p(z), ascending degree,
    by Horner's rule p = p * (z + shift) + c."""
    out = [ZERO]
    for c in reversed(coeffs):
        out = _poly_mul(out, [shift, ONE])
        out[0] = out[0] + c
    return tuple(out[: len(coeffs)])


def reference_fire(t, w, vertices):
    """The numbers game on the given vertices in field arithmetic: fire the
    smallest entry while it is negative, ties to the smallest index.
    Returns the terminal weight and the firing sequence."""
    fired = []
    while True:
        i = min(vertices, key=lambda j: w[j]._key())
        if not w[i] < ZERO:
            return w, fired
        w = dual_reflection(t, w, i)
        fired.append(i)


def reference_presentation(t, w):
    """(shift, xy, yx) of the ~A_n presentation, multiplied out factor by
    factor in field arithmetic on w itself."""
    shift = dot_delta(t, w)
    xy, yx, partial = [ONE], [ONE], ZERO
    for i in range(t.n + 1):
        partial = partial + w[i] if i >= 1 else partial
        low = partial - shift
        xy = [x * partial + y for x, y in zip(xy + [ZERO], [ZERO] + xy)]
        yx = [x * low + y for x, y in zip(yx + [ZERO], [ZERO] + yx)]
    return shift, tuple(xy), tuple(yx)


def schedler_configuration(t) -> Weight:
    """(1 - sum_{i>=1} delta_i, 1, 1, ..., 1)."""
    d = delta_vector(t)
    return Weight.of([1 - sum(d[1:])] + [1] * t.n)


# the singularity descriptor from the root system: Phi_lambda, the positive
# roots orthogonal to the weight, read on the Dynkin part 1..n

def figure1_dynkin_edges(family: str, n: int) -> set[tuple[int, int]]:
    """The edges (i, j), i < j, of the Figure-1 Dynkin diagram on 1..n."""
    if family == "A":
        return {(i, i + 1) for i in range(1, n)}
    if family == "D":
        return {(1, 2), (n - 2, n - 1), (n - 2, n)} | {(i, i + 1) for i in range(2, n - 2)}
    return {6: {(1, 4), (2, 3), (3, 4), (4, 5), (5, 6)},
            7: {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)},
            8: {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)}}[n]


def root_form(edges: set[tuple[int, int]]):
    """The form (a, b) = a^T (2I - A) b on coefficient tuples over 1..n."""
    def form(a, b):
        return (2 * sum(x * y for x, y in zip(a, b))
                - sum(a[i - 1] * b[j - 1] + a[j - 1] * b[i - 1] for i, j in edges))
    return form


def positive_roots(n: int, edges: set[tuple[int, int]]) -> set[tuple[int, ...]]:
    """The positive roots as coefficient tuples over the simple roots 1..n:
    the simple roots and what reflecting them reaches while it stays
    positive (s_i sends only alpha_i out of the positive roots)."""
    form = root_form(edges)
    simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    roots, todo = set(simple), list(simple)
    while todo:
        a = todo.pop()
        for e in simple:
            c = form(a, e)
            b = tuple(x - c * y for x, y in zip(a, e))
            if min(b) >= 0 and b not in roots:
                roots.add(b)
                todo.append(b)
    return roots


# an irreducible ADE root system is fixed by its rank and its number of
# positive roots
ADE_BY_RANK_AND_SIZE = ({(r, r * (r + 1) // 2): f"A{r}" for r in range(1, 9)}
                        | {(r, r * (r - 1)): f"D{r}" for r in range(4, 9)}
                        | {(6, 36): "E6", (7, 63): "E7", (8, 120): "E8"})


def root_descriptor(t, w, roots: set[tuple[int, ...]]) -> tuple[str, ...]:
    """The sorted Dynkin types of the components of Phi_lambda, for any
    weight w on t, not only a quasi-dominant one; roots are the positive
    roots of the Dynkin part, from positive_roots.

    lambda . alpha is sum_i w_i alpha_i over 1..n, summed on the real and
    the imaginary parts of the entries apart.
    The simple roots of Phi_lambda are its indecomposable roots, two simple
    roots are joined when their form is nonzero, and a root of Phi_lambda
    lies in the one component whose simple roots it is not orthogonal to.
    """
    form = root_form(figure1_dynkin_edges(t.family, t.n))
    lam = [(x.re, x.im) for x in w.entries[1:]]
    zero = [a for a in roots
            if sum(c * re for c, (re, _) in zip(a, lam)) == 0
            and sum(c * im for c, (_, im) in zip(a, lam)) == 0]
    members = set(zero)
    simple = [a for a in zero
              if not any(tuple(x - y for x, y in zip(a, b)) in members for b in zero)]
    types, left = [], set(simple)
    while left:
        comp, todo = set(), [left.pop()]
        while todo:
            a = todo.pop()
            comp.add(a)
            near = {b for b in left if form(a, b)}
            left -= near
            todo.extend(near)
        size = sum(1 for a in zero if any(form(a, b) for b in comp))
        types.append(ADE_BY_RANK_AND_SIZE[len(comp), size])
    return tuple(sorted(types))


# the reference field-element parser: it matches the text, then parses each
# captured part again with Fraction(str), which the package's parser must
# match in value, part types and error text
_UNSIGNED = rf"{_DIGITS}(?:/{_DIGITS})?"
_ELEM_RE = re.compile(
    rf"^\s*(?:(?P<re>[+-]?{_UNSIGNED})(?:\s*(?P<im1>[+-]\s*(?:{_UNSIGNED})?)\s*i)?"
    rf"|(?P<im2>[+-]?(?:{_UNSIGNED})?)\s*i)\s*$")


def reference_parse_field_elem(text: str) -> FieldElem:
    """Parse "a", "a/b", "a/b+c/d i", or a pure imaginary like "-i"."""
    m = _ELEM_RE.match(text)
    if not m:
        raise DomainError(f"cannot parse field element {text!r}")
    try:
        return _field_elem_of(m)
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in field element {text!r}") from None


def _field_elem_of(m: re.Match) -> FieldElem:
    if m.group("im2") is not None:
        im = re.sub(r"\s", "", m.group("im2"))
        if im in ("", "+"):
            im = "1"
        elif im == "-":
            im = "-1"
        return _make(0, _canon(Fraction(im)))
    re_part = _canon(Fraction(m.group("re")))
    im_part = 0
    if m.group("im1") is not None:
        s = re.sub(r"\s", "", m.group("im1"))
        if s in ("+", "-"):
            s += "1"
        im_part = _canon(Fraction(s))
    return _make(re_part, im_part)


# the slots of "a + b i", each filled with a valid choice or a near miss
FUZZ_SPACE = ("", "", " ", "\t", "\u2003")
FUZZ_NUMBER = ("", "0", "3", "12", "3/4", "-5/6", "+2", "1/0", "0/0", "1/", "/2", ".5",
               "1e3", "\u0663", "99999999999999999999")
FUZZ_SIGN = ("", "+", "-", "--", "+-", ",")
FUZZ_UNIT = ("", "i", "i", "j", "ii")
FUZZ_SLOTS = (FUZZ_SPACE, FUZZ_NUMBER, FUZZ_SPACE, FUZZ_SIGN, FUZZ_SPACE, FUZZ_NUMBER,
              FUZZ_SPACE, FUZZ_UNIT, FUZZ_SPACE)


def fuzz_text(rng):
    """A string shaped like a field element, some slots holding near misses."""
    return "".join(rng.choice(slot) for slot in FUZZ_SLOTS)


# the argv slots of the subcommands other than decompose, each holding valid
# choices and near misses; ranks stay at 8 or below, so every run is quick
FUZZ_EXT_TYPES = ("~D4", "~D5", "~D8", "~E6", "~E7", "~E8", "~A2", "~A5", "~A8", " ~D6",
                  "~D04", "~D٤", "D5", "~A1", "~D3", "~E9", "~F4", "~", "", "~d4",
                  "~D²", "~D-4")
FUZZ_DYNKIN_TYPES = ("A1", "A8", "D4", "D8", "E6", "E7", "E8", " D5", "A0", "D3", "E9",
                     "~E6", "G2", "E", "E²", "A+3")
FUZZ_VERTEX = ("0", "1", "2", "3", "4", "5", "6", "-1", "99", "x", "", " 3", "4.0", "1_0",
               "٤", "²")
FUZZ_SUITES = ("dims", "knitting", "intersection", "maps", "all", "map", "ALL", "", " dims")
FUZZ_FORMATS = ("text", "json", "xml", "")
FUZZ_EXTRAS = ("--bogus", "--type", "--S", "-h", "extra")


def fuzz_argv(rng):
    """A seeded argv for knit, dims, intersect, resolve, presentation or
    verify, with near misses in some slots.  ``--maps`` is only asked of
    ~D4 and ~D5."""
    cmd = rng.choice(("knit", "dims", "intersect", "resolve", "presentation", "verify"))
    argv = [cmd]
    if cmd == "knit":
        t = rng.choice(("~D4", "~D5", "~D7", "~E6", "~E8") if rng.random() < 0.8
                       else FUZZ_EXT_TYPES)
        vertex = lambda: rng.choice(FUZZ_VERTEX) if rng.random() < 0.2 else str(rng.randint(1, 8))
        s = [vertex() for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.8:
            s.insert(0, "0")
        argv += ["--type", t, "--S", ",".join(s), "--target", vertex()]
        if t.strip() in ("~D4", "~D5") and rng.random() < 0.5:
            argv.append("--maps")
        if rng.random() < 0.3:
            argv.append("--ascii")
    elif cmd == "dims":
        argv += ["--type", rng.choice(FUZZ_DYNKIN_TYPES)]
    elif cmd == "presentation":
        n = rng.randint(1, 9)
        entries = [rng.choice(("0", "1", "-1", "1/2", "i")) for _ in range(n)]
        if rng.random() < 0.2:
            entries[rng.randrange(n)] = fuzz_text(rng)
        argv += ["--type", rng.choice((f"~A{n - 1}", "~A3", "~D4")),
                 "--weights=" + ",".join(entries)]
    elif cmd == "verify":
        argv += ["--suite", rng.choice(FUZZ_SUITES)]
    else:
        argv += ["--type", rng.choice(FUZZ_EXT_TYPES)]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(FUZZ_FORMATS)]
    if rng.random() < 0.1:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(FUZZ_EXTRAS))
    return argv
