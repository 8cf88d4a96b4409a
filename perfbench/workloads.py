"""The benchmark's workloads: seeded inputs, the timed calls of each item,
and a correctness check per item that does not reuse the code under test.

Program functions are always looked up through their module at call time
(``pathalg.verify_zero_product``, never a bare imported name), so that the
tracer's wrappers see every call.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")

# Status of a checked item: "ok"; "unresolved" (the program returned without
# an answer, which counts as failed but is not a wrong answer); "wrong" (a
# result failed its check) and "error" (the call raised), both of which also
# make the run incorrect, since no item raised or failed its check when the
# benchmark was defined.
OK, UNRESOLVED, WRONG, ERROR = "ok", "unresolved", "wrong", "error"


@dataclass
class Item:
    """One timed unit of work; ``run`` calls the program, ``check`` judges
    its result and returns (status, digest of the result)."""

    id: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, str]]


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# exact arithmetic kept apart from the program's FieldElem: (re, im) pairs


def pair(x) -> tuple[Fraction, Fraction]:
    return (Fraction(x.re), Fraction(x.im))


def pair_sub_mul(a, b, k: int):
    """a - k*b on (re, im) pairs."""
    return (a[0] - k * b[0], a[1] - k * b[1])


def pair_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def pair_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def replay(cext, start: list, word) -> list:
    """Apply dual reflections (r_i w)_j = w_j - C~_ij w_i left to right."""
    w = list(start)
    for i in word:
        wi, row = w[i], cext[i]
        w = [pair_sub_mul(w[j], wi, row[j]) for j in range(len(w))]
    return w


def dot(w: list, delta) -> tuple[Fraction, Fraction]:
    total = (Fraction(0), Fraction(0))
    for x, d in zip(w, delta):
        total = (total[0] + d * x[0], total[1] + d * x[1])
    return total


ZERO_PAIR = (Fraction(0), Fraction(0))


def seeded_fraction(rng: random.Random) -> Fraction:
    """A random a/b with a, b nonzero and |a|, b at most 9."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def with_imaginary(re_part: Fraction, rng: random.Random) -> str:
    """re_part + c/d i with a seeded nonzero c/d."""
    im_part = seeded_fraction(rng)
    return f"{re_part}{'+' if im_part > 0 else '-'}{abs(im_part)}i"


# ---------------------------------------------------------------------------
# certify: the printed map pairs at three weights each


def certify_items(seed: int) -> list[Item]:
    from preproj import fixtures, pathalg, weights

    rng = random.Random(seed)
    items = []
    for fx in fixtures.MAP_FIXTURES:
        t = fx.type
        psi, phi = fx.matrices()
        comp = set(fx.component)
        gauss = weights.Weight.of(["0" if i in comp else with_imaginary(seeded_fraction(rng), rng)
                                   for i in range(t.n + 1)])
        for label, w in (("printed", fx.zero_weight()),
                         ("component", fx.component_weight()),
                         ("gaussian", gauss)):
            entries = len(psi) * len(phi[0])

            def run(t=t, w=w, psi=psi, phi=phi):
                rep = pathalg.verify_zero_product(t, w, psi, phi, degree_cap=24)
                return rep, [pathalg.check_certificate(t, c) for c in rep.certificates]

            def check(res, entries=entries, w=w):
                rep, expanded = res
                ok = (rep.ok and len(rep.certificates) == entries and all(expanded)
                      and all(c.weight == w for c in rep.certificates))
                return (OK if ok else WRONG), digest([cert_terms(c) for c in rep.certificates])

            items.append(Item(f"{fx.fixture_id}-{label}", label, run, check))
    return items


def cert_terms(cert) -> list:
    return [(str(c), str(u), v, str(w)) for c, u, v, w in cert.terms]


# ---------------------------------------------------------------------------
# knit: the worked and golden knitted sequences, in a seeded order
#
# The seed shuffles the order of the types and keeps the fixture order within
# each type.  Sequences of one type share that type's path-algebra model, so
# the item that first needs a layer pays for building it; a shuffle within a
# type would move that cost from item to item and make the latency tail
# depend on the seed rather than on the program.


def knit_items(seed: int) -> list[Item]:
    from preproj import dynkin, knitting, pathalg

    with open(os.path.join(GOLDEN, "knit_sequences.json")) as fh:
        blocks: dict[str, list] = {}
        for g in json.load(fh):
            blocks.setdefault(g["type"], []).append(g)
    order = list(blocks.values())
    random.Random(seed).shuffle(order)
    items = []
    for g in (g for block in order for g in block):
        t = dynkin.parse_type(g["type"])
        s = frozenset(g["middle"]) | {0}

        def run(t=t, s=s, target=g["target"]):
            r = knitting.knit(t, s, target)
            return r, knitting.extract_maps(r)

        def check(res, t=t, g=g):
            r, m = res
            shape = (r.kernel, sorted(r.middle_multiset()))
            if shape != (g["kernel"], sorted(g["middle"])):
                return WRONG, digest(shape)
            if not m.resolved:
                return UNRESOLVED, digest(shape)
            certs = m.report.certificates
            ok = m.report.ok and certs and all(pathalg.check_certificate(t, c) for c in certs)
            maps = ([str(x) for x in m.psi], [str(x) for x in m.phi])
            return (OK if ok else WRONG), digest((shape, maps, [cert_terms(c) for c in certs]))

        items.append(Item(g["id"], "sequence", run, check))
    return items


# ---------------------------------------------------------------------------
# weights: seeded weights through the decomposition pipeline, plus the
# smooth resolution of every type

EXTENDED_TYPES = ([f"~A{n}" for n in range(2, 9)] + [f"~D{n}" for n in range(4, 9)]
                  + [f"~E{n}" for n in (6, 7, 8)])
WEIGHTS_PER_TYPE = 80


def random_entry(rng: random.Random, gaussian: bool) -> str:
    """0 (about a third of entries, so that components appear), a small
    integer or a seeded a/b, plus an imaginary part when gaussian."""
    roll = rng.random()
    if roll < 0.35:
        return "0"
    re_part = Fraction(rng.randint(-3, 3)) if roll < 0.75 else seeded_fraction(rng)
    return with_imaginary(re_part, rng) if gaussian else str(re_part)


def weights_items(seed: int) -> list[Item]:
    from preproj import dynkin, intersection, singularity, typea, weights

    rng = random.Random(seed)
    items = []
    for name in EXTENDED_TYPES:
        t = dynkin.parse_type(name)
        data = dynkin.cartan(t)
        for k in range(WEIGHTS_PER_TYPE):
            gaussian = k % 4 == 3
            w = weights.parse_weight(",".join(random_entry(rng, gaussian)
                                              for _ in range(t.n + 1)))

            def run(t=t, w=w):
                qd, word = weights.quasi_dominantize(t, w)
                cls = weights.classify_weight(t, qd)
                d = singularity.q_lambda_decompose(t, qd)
                perm = singularity.translation_permutation(d)
                desc = singularity.descriptor(d)
                pres = typea.presentation(t.n, w) if t.family == "A" else None
                return qd, word, cls, d, perm, desc, pres

            def check(res, t=t, w=w, data=data):
                return check_weight(t, w, data, res)

            label = "gaussian" if gaussian else "rational"
            items.append(Item(f"{name}-w{k:02d}", label, run, check))

        def run_resolve(t=t):
            return intersection.smooth_resolution(t)

        def check_resolve(res, t=t, data=data):
            eps = [(Fraction(1 if i == 0 else 0), Fraction(0)) for i in range(t.n + 1)]
            mu = replay(data.cartan_ext, eps, res.reflections)
            ok = (mu == [pair(x) for x in res.mu.entries]
                  and all(x > ZERO_PAIR for x in mu[1:])
                  and res.gamma.entries == tuple(tuple(-x for x in row) for row in data.cartan))
            return (OK if ok else WRONG), digest((str(res.mu), res.reflections))

        items.append(Item(f"{name}-resolve", "resolve", run_resolve, check_resolve))
    return items


def check_weight(t, w, data, res) -> tuple[str, str]:
    qd, word, cls, d, perm, desc, pres = res
    start = [pair(x) for x in w.entries]
    got = [pair(x) for x in qd.entries]
    zeros = tuple(i for i in range(1, t.n + 1) if got[i] == ZERO_PAIR)
    shift = dot(start, data.delta)
    ok = (replay(data.cartan_ext, start, word) == got
          and all(x >= ZERO_PAIR for x in got[1:])
          and dot(got, data.delta) == shift
          and cls.quasi_dominant and cls.commutative == (shift == ZERO_PAIR)
          and cls.singular == bool(zeros) and cls.smooth == (not zeros)
          and d.i_lambda == zeros)
    # components partition I_lambda, the descriptor lists their types, and
    # the translation permutation is an adjacency-preserving involution
    # that keeps each component
    covered = sorted(v for _, verts, _ in d.components for v in verts)
    ok = ok and covered == list(zeros) and sum(dt.n for dt, _, _ in d.components) == len(zeros)
    ok = ok and list(desc.types) == sorted(str(dt) for dt, _, _ in d.components)
    m = perm.permutation.as_dict()
    adj = data.adjacency
    ok = ok and sorted(m) == list(zeros) and all(m[m[v]] == v for v in m)
    ok = ok and all(adj[u][v] == adj[m[u]][m[v]] for u in m for v in m)
    ok = ok and all(m[v] in verts for _, verts, _ in d.components for v in verts)
    if pres is not None:
        ok = ok and check_presentation(t.n, start, shift, pres)
    return (OK if ok else WRONG), digest((str(qd), word, str(desc), sorted(m.items()),
                                          None if pres is None else str(pres)))


def check_presentation(n: int, w: list, shift, pres) -> bool:
    """xy(z) = prod_{i=0}^{n} (z + w_1 + ... + w_i) and yx(z) = xy(z - shift),
    evaluated at a few integer points."""
    xy = [pair(c) for c in pres.xy]
    yx = [pair(c) for c in pres.yx]
    if len(xy) != n + 2 or pair(pres.shift) != shift:
        return False

    def evaluate(coeffs, z):
        out = ZERO_PAIR
        for c in reversed(coeffs):
            out = pair_add(pair_mul(out, z), c)
        return out

    for z0 in range(-2, 3):
        z = (Fraction(z0), Fraction(0))
        prod, partial = (Fraction(1), Fraction(0)), ZERO_PAIR
        for i in range(n + 1):
            if i >= 1:
                partial = pair_add(partial, w[i])
            prod = pair_mul(prod, pair_add(z, partial))
        if evaluate(xy, z) != prod:
            return False
        if evaluate(yx, z) != evaluate(xy, pair_sub_mul(z, shift, 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# cli: cold processes for the README examples and three large dims tables

README_EXAMPLES = {
    "decompose": ["decompose", "--type", "~A5", "--weights", "0,0,1,0,0,0"],
    "knit": ["knit", "--type", "~D5", "--S", "0,5", "--target", "4", "--ascii", "--maps"],
    "dims": ["dims", "--type", "E6"],
    "intersect": ["intersect", "--type", "~E8"],
    "resolve": ["resolve", "--type", "~D7"],
    "presentation": ["presentation", "--type", "~A3", "--weights=-1,0,0,1"],
}


def cli_commands(examples=tuple(README_EXAMPLES)) -> list[tuple[str, list[str]]]:
    """The cli items of the given README examples; the three large dims
    tables ride with ``dims``."""
    out = []
    for name in examples:
        argv = README_EXAMPLES[name]
        out.append((f"{name}-text", argv))
        out.append((f"{name}-json", argv + ["--format", "json"]))
    if "dims" in examples:
        for t in ("A20", "D16", "E8"):
            out.append((f"dims-{t}-json", ["dims", "--type", t, "--format", "json"]))
    return out


def check_cli(item_id: str, code: int, out: bytes) -> tuple[str, str]:
    """Exit code 0, stdout equal to the stored golden bytes, and for JSON a
    byte-identical parse/re-serialise round trip."""
    with open(os.path.join(GOLDEN, "cli", f"{item_id}.out"), "rb") as fh:
        golden = fh.read()
    ok = code == 0 and out == golden
    if ok and item_id.endswith("-json"):
        text = out.decode().rstrip("\n")
        ok = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) == text
    return (OK if ok else WRONG), hashlib.sha256(out).hexdigest()[:16]


# A workload is the item families one round runs in its own process, then
# the cli items it runs as cold processes.  Items are grouped by the layers
# they load, so that each workload bypasses the other's heaviest layers:
# ``pathalg`` builds path-algebra models and certificates, ``weights`` never
# touches pathalg.
WORKLOADS = {
    "pathalg": ((certify_items, knit_items), ("knit", "dims")),
    "weights": ((weights_items,), ("decompose", "intersect", "resolve", "presentation")),
}


def in_process_items(workload: str, seed: int) -> list[Item]:
    families, _ = WORKLOADS[workload]
    return [item for family in families for item in family(seed)]
