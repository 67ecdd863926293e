"""Seeded input generators for the three benchmark workloads.

Everything here is plain `fractions`/`random` code: the generators import
nothing from `zerocycles` or from the test suite, and the program under test
only ever sees the JSON documents they return.  The same seed gives the same
documents byte for byte.  Instances are filtered with the benchmark's own
exact arithmetic (`exact`, `oracles`) so that no op has a legitimate reason
to be refused, except the pinned refusals.

Each workload is an endless generator of pass documents
``{"workload", "seed", "pass", "surfaces", "ops"}``; every pass holds fresh
instances drawn from the same stream.  Surfaces are stored once by name; each
op is ``{"id", "kind", "via", "args", "expect"}`` where ``via`` is ``"lib"`` (a
direct library call) or ``"cli"`` (the same call through
``zerocycles.cli.run``) and ``expect`` is ``"ok"`` or the kind of the
structured refusal the op must produce.  Ops whose inputs do not depend on
the seed carry an id starting with ``pin-``; the sha256 of their canonical
output is committed in ``expected.json``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracles
from exact import det, form_value, monomial, q, rank, restrict, solve

HERE = Path(__file__).resolve().parent

#: All 20 degree-3 exponent vectors on 4 variables, in a fixed order.
MONOMIALS = [
    tuple(sum(1 for v in combo if v == i) for i in range(4))
    for combo in itertools.combinations_with_replacement(range(4), 3)
]

#: Fixed diagonal surfaces (a, b, c, d) -> a X0^3 + b X1^3 + c X2^3 + d X3^3.
DIAGONAL = {
    "fermat": (1, 1, 1, 1),
    "diag-1112": (1, 1, 1, 2),
    "diag-123m6": (1, 2, 3, -6),
}

#: One op in every CLI_EVERY goes through `zerocycles.cli.run` instead of the
#: library, among the kinds that have a CLI command.
CLI_EVERY = 10
CLI_KINDS = frozenset({
    "third_point", "tangent_residual", "line_section", "tangent_triple",
    "enumerate", "saturate", "certify", "verify",
})


def point_json(coords) -> list:
    return [q(c) for c in coords]


def surface_json(terms: dict) -> dict:
    return {
        "vars": 4,
        "degree": 3,
        "monomials": [
            {"exp": list(exp), "coeff": q(c)} for exp, c in sorted(terms.items()) if c != 0
        ],
    }


def diagonal_terms(coeffs) -> dict:
    exps = [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]
    return {e: Fraction(c) for e, c in zip(exps, coeffs)}


def weierstrass_terms(a, b) -> dict:
    """y^2 z = x^3 + a x z^2 + b z^3 as the X3 = 0 section of X1^2 X2 - ... + X3^3."""
    terms = {(0, 2, 1, 0): Fraction(1), (3, 0, 0, 0): Fraction(-1), (0, 0, 0, 3): Fraction(1)}
    terms[(1, 0, 2, 0)] = -Fraction(a)
    terms[(0, 0, 3, 0)] = -Fraction(b)
    return {e: c for e, c in terms.items() if c != 0}


def random_point(rng, height, zero_at=None) -> list:
    while True:
        v = [rng.randint(-height, height) for _ in range(4)]
        if zero_at is not None:
            v[zero_at] = 0
        if any(v):
            return v


def surface_through(rng, points):
    """Random cubic with small coefficients forced through the given integer points.

    Solves for the coefficients of the first set of monomials whose linear
    system at the points is invertible; None if no set works.
    """
    coeffs = {e: Fraction(rng.randint(-3, 3)) for e in MONOMIALS}
    at = [{e: monomial(e, p) for e in MONOMIALS} for p in points]
    full = [sum(c * v[e] for e, c in coeffs.items()) for v in at]
    for chosen in itertools.combinations(MONOMIALS, len(points)):
        rows = [[v[m] for m in chosen] for v in at]
        rhs = [sum(coeffs[m] * v[m] for m in chosen) - f for v, f in zip(at, full)]
        values = solve(rows, rhs)
        if values is None:
            continue
        coeffs.update(zip(chosen, values))
        return {e: c for e, c in coeffs.items() if c != 0}
    return None


def skew(p, q_, r, s) -> bool:
    return det([list(map(Fraction, v)) for v in (p, q_, r, s)]) != 0


def _secant(rng, zero_x=None, zero_y=None):
    """(terms, x, y): a random surface through two distinct integer points
    whose secant is not contained in it."""
    while True:
        x = random_point(rng, 4, zero_x)
        y = random_point(rng, 4, zero_y)
        if rank([x, y]) < 2:
            continue
        terms = surface_through(rng, [x, y])
        if terms is None:
            continue
        if not any(restrict(terms, x, [b - a for a, b in zip(x, y)])):
            continue
        return terms, x, y


def _weierstrass(rng):
    """(a, b, point): a smooth Weierstrass curve through an integer point with y != 0."""
    while True:
        a = rng.randint(-6, 6)
        x0 = rng.randint(-4, 4)
        y0 = rng.choice([v for v in range(-6, 7) if v != 0])
        b = y0 * y0 - x0**3 - a * x0
        if 4 * a**3 + 27 * b * b != 0:
            return a, b, [x0, y0, 1, 0]


def _axis_in_plane_x3(point):
    """An axis inside X3 = 0 that misses the point, so its fibre plane is X3 = 0."""
    j = next(i for i in range(3) if point[i] != 0)
    vecs = [[int(i == k) for k in range(4)] for i in range(3) if i != j]
    return [point_json(v) for v in vecs]


def has_rational_root(coeffs) -> bool:
    """Whether a0 + a1 t + ... has a rational root (rational root theorem)."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return True
    if ints[0] == 0:
        return len(ints) > 1
    if len(ints) == 1:
        return False
    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            for root in (Fraction(num, den), Fraction(-num, den)):
                if sum(c * root**k for k, c in enumerate(ints)) == 0:
                    return True
    return False


def _divisors(n: int) -> set:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return set(small) | {n // d for d in small}


def _irreducible_section(rng, terms):
    """A line meeting the surface in one point of degree 3 (no rational root)."""
    while True:
        p, r = random_point(rng, 3), random_point(rng, 3)
        if rank([p, r]) < 2 or form_value(terms, r) == 0:
            continue
        if not has_rational_root(restrict(terms, p, r)):
            return p, r


def _split_secant(rng):
    """(terms, x, y, axis): a secant through x on X3 = 0 and y on X2 = 0 whose
    three rational points are distinct, off the axis, and each have a proper
    tangent residual, so the triple map has no reason to refuse."""
    while True:
        terms, x, y = _secant(rng, zero_x=3, zero_y=2)
        axis = _skew_pair(rng, (x, y), 4)
        points = oracles.rational_section(terms, x, y)
        try:
            residuals = [oracles.tangent_residual(terms, axis, p) for p in points]
        except ValueError:
            continue
        if len(points) == 3 and all(any(r) for r in residuals):
            return terms, x, y, axis


def _skew_pair(rng, line, height):
    while True:
        p, r = random_point(rng, height), random_point(rng, height)
        if skew(line[0], line[1], p, r):
            return [p, r]


class _Pass:
    """The input document of one pass, built op by op."""

    def __init__(self, workload, seed, index):
        self.doc = {"workload": workload, "seed": seed, "pass": index, "surfaces": {}, "ops": []}

    def surface(self, name, terms) -> str:
        self.doc["surfaces"][name] = surface_json(terms)
        return name

    def op(self, op_id, kind, args, cli=None, expect="ok"):
        if cli is None:
            cli = len(self.doc["ops"]) % CLI_EVERY == CLI_EVERY - 1
        via = "cli" if cli and kind in CLI_KINDS else "lib"
        self.doc["ops"].append(
            {"id": op_id, "kind": kind, "via": via, "args": args, "expect": expect})


#: Share of each op kind in `constructions`, as ops per block.  Chords are the
#: largest share so the median falls among them; forced splits are the top
#: sixth so the 90th percentile falls among them.
CONSTRUCTION_BLOCK = (
    ("third_point", 6),
    ("tangent_residual", 2),
    ("line_section", 3),
    ("tangent_triple", 3),
    ("split_triple", 4),
    ("pencil_rank", 2),
    ("standardize", 1),
)
CONSTRUCTION_BLOCKS = 12


def constructions(seed: int):
    """Passes of the geometry mix; every block holds each kind in fixed shares.

    Each op is a fresh random instance, except one pinned refusal per block.
    """
    rng = random.Random(f"constructions/{seed}")
    diagonal_names = sorted(DIAGONAL)
    n = 0
    for index in itertools.count():
        b = _Pass("constructions", seed, index)
        for name, coeffs in DIAGONAL.items():
            b.surface(name, diagonal_terms(coeffs))
        for block in range(CONSTRUCTION_BLOCKS):
            for kind, per_block in CONSTRUCTION_BLOCK:
                for _ in range(per_block):
                    n += 1
                    _construction(b, rng, kind, n, diagonal_names)
            if block % 2 == 0:
                b.op("pin-refuse-line", "third_point", {
                    "surface": "fermat", "x": ["1", "-1", "0", "0"], "y": ["0", "0", "1", "-1"]},
                    cli=block % 4 == 0, expect="LineInSurface")
            else:
                b.op("pin-refuse-axis", "tangent_residual", {
                    "surface": "fermat", "axis": [["1", "-1", "0", "0"], ["0", "0", "1", "-1"]],
                    "point": ["1", "-1", "0", "0"]}, cli=block % 4 == 1, expect="PointOnAxis")
        yield b.doc


def _construction(b, rng, kind, n, diagonal_names):
    op_id = f"c{n}-{kind}"
    if kind == "third_point":
        terms, x, y = _secant(rng)
        name = b.surface(f"s{n}", terms)
        b.op(op_id, kind, {"surface": name, "x": point_json(x), "y": point_json(y)})
    elif kind == "tangent_residual":
        wa, wb, pt = _weierstrass(rng)
        name = b.surface(f"w{n}", weierstrass_terms(wa, wb))
        b.op(op_id, kind, {"surface": name, "axis": _axis_in_plane_x3(pt),
                           "point": point_json(pt), "curve": [wa, wb]})
    elif kind == "line_section":
        name = rng.choice(diagonal_names)
        p, r = _irreducible_section(rng, diagonal_terms(DIAGONAL[name]))
        b.op(op_id, kind, {"surface": name, "line": [point_json(p), point_json(r)]})
    elif kind == "tangent_triple":
        while True:
            name = rng.choice(diagonal_names)
            terms = diagonal_terms(DIAGONAL[name])
            p, r = _irreducible_section(rng, terms)
            axis = _skew_pair(rng, (p, r), 3)
            if oracles.cubic_point_has_tangent_residual(terms, axis, p, r):
                break
        b.op(op_id, kind, {"surface": name, "line": [point_json(p), point_json(r)],
                           "axis": [point_json(v) for v in axis]})
    elif kind == "split_triple":
        # x on X3 = 0 and y on X2 = 0: both free kernel coordinates of the
        # tangent process become zero divisors, so the algebra must split
        terms, x, y, axis = _split_secant(rng)
        name = b.surface(f"s{n}", terms)
        b.op(op_id, "tangent_triple", {
            "surface": name, "line": [point_json(x), point_json(y)],
            "axis": [point_json(v) for v in axis], "split": True})
    elif kind == "pencil_rank":
        while True:
            u, v, w = ([rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(3))
            if all(any(t) for t in (u, v, w)):
                break
        if rng.random() < 0.5:
            v, w = list(u), list(u)
        b.op(op_id, kind, {"u": u, "v": v, "w": w})
    else:
        lines = []
        while len(lines) < 3:
            cand = [random_point(rng, 3), random_point(rng, 3)]
            if rank(cand) == 2 and all(skew(*cand, *other) for other in lines):
                lines.append(cand)
        b.op(op_id, "standardize", {"lines": lines})


def _three_point_surface(rng):
    """(terms, seeds): a random surface through three non-collinear integer points."""
    while True:
        seeds = [random_point(rng, 3) for _ in range(3)]
        if rank(seeds) < 3:
            continue
        terms = surface_through(rng, seeds)
        if terms is not None:
            return terms, seeds


def _sparse_diagonal(rng) -> tuple:
    return tuple(rng.choice([v for v in range(-7, 8) if v != 0]) for _ in range(4))


#: One block of `pointsearch`, in pass order.  Sparse enumerations are the
#: majority so the median falls among them; saturations are the top fifth so
#: the 90th percentile falls among them.
POINT_BLOCK = (
    "enum_sparse", "saturate", "enum_sparse", "enum_fermat", "enum_sparse",
    "enum_random", "enum_sparse", "enum_sparse", "enum_sparse", "saturate",
)
POINT_BLOCKS = 4
SPARSE_HEIGHT = 5
FERMAT_HEIGHT = 6
RANDOM_HEIGHT = 4
#: Two rounds take coordinates to 25-70 bits.  A third round can cost 0.3-10 s
#: per instance, which would let one op decide a run's throughput.
SATURATE_ROUNDS = 2


def pointsearch(seed: int):
    """Passes of enumeration on dense and sparse surfaces and of saturation."""
    rng = random.Random(f"pointsearch/{seed}")
    n = 0
    for index in itertools.count():
        b = _Pass("pointsearch", seed, index)
        b.surface("fermat", diagonal_terms(DIAGONAL["fermat"]))
        for _block in range(POINT_BLOCKS):
            for kind in POINT_BLOCK:
                n += 1
                if kind == "enum_fermat":
                    b.op("pin-enum-fermat", "enumerate",
                         {"surface": "fermat", "height": FERMAT_HEIGHT})
                elif kind == "enum_sparse":
                    name = b.surface(f"d{n}", diagonal_terms(_sparse_diagonal(rng)))
                    b.op(f"p{n}-enum", "enumerate", {"surface": name, "height": SPARSE_HEIGHT})
                elif kind == "enum_random":
                    terms, _seeds = _three_point_surface(rng)
                    name = b.surface(f"r{n}", terms)
                    b.op(f"p{n}-enum", "enumerate", {"surface": name, "height": RANDOM_HEIGHT})
                else:
                    terms, seeds = _three_point_surface(rng)
                    name = b.surface(f"r{n}", terms)
                    b.op(f"p{n}-saturate", "saturate", {
                        "surface": name, "seeds": [point_json(v) for v in seeds],
                        "rounds": SATURATE_ROUNDS})
        yield b.doc


#: (goal, surface degree, with_x4) for the four bound suites.
DESCENT_SUITES = (
    ("cubic", 3, False),
    ("cubic-x4", 3, True),
    ("dp2-refined", 2, False),
    ("dp1-refined", 1, False),
)
DESCENT_CEILING = 240
#: Start degrees far above the ceiling, so their menus miss the cache.
DESCENT_TAIL = (2000, 5000)


def load_corpus() -> list:
    """Committed certificates, each made by `find_certificate` or `entry_certificate`
    and verified when committed; `descent` verifies them and tampered copies."""
    return json.loads((HERE / "corpus" / "certificates.json").read_text())


def tamper(rng, cert: dict) -> dict:
    """A copy of a valid certificate with one change that breaks its replay."""
    cert = json.loads(json.dumps(cert))
    guarded = [m for m in cert["moves"] if any(k.startswith("h0") for k in m.get("witness", {}))]
    how = rng.choice(["witness", "parameter", "final"])
    if how == "final" or not guarded:
        cert["final"]["unknown_degree"] += rng.choice([1, 2])
    elif how == "witness":
        move = rng.choice(guarded)
        key = rng.choice(sorted(k for k in move["witness"] if k.startswith("h0")))
        move["witness"][key] += rng.choice([-1, 1])
    else:
        rng.choice(guarded)["l"] += 1
    return cert


def descent(seed: int):
    """Passes of: every start degree up to the ceiling on four suites in
    ascending order, verification of the committed corpus and of a freshly
    tampered copy of each certificate, then a cache-missing tail.

    Each pass is a fresh interpreter, so the move-menu cache starts cold.
    """
    rng = random.Random(f"descent/{seed}")
    corpus = load_corpus()
    spacing = DESCENT_CEILING // len(corpus)
    for index in itertools.count():
        b = _Pass("descent", seed, index)
        for degree in range(1, DESCENT_CEILING + 1):
            for goal, d_s, with_x4 in DESCENT_SUITES:
                b.op(f"pin-certify-{goal}-{degree}", "certify",
                     {"dS": d_s, "with_x4": with_x4, "goal": goal, "degree": degree})
            if degree % spacing == 0 and degree // spacing <= len(corpus):
                item = corpus[degree // spacing - 1]
                b.op(f"pin-verify-{item['name']}", "verify", {"certificate": item["certificate"]})
                b.op(f"verify-tampered-{item['name']}", "verify",
                     {"certificate": tamper(rng, item["certificate"]), "tampered": True})
        for degree in DESCENT_TAIL:
            b.op(f"pin-certify-cubic-{degree}", "certify",
                 {"dS": 3, "with_x4": False, "goal": "cubic", "degree": degree})
        yield b.doc


#: Workload name -> generator of pass documents for a seed.
GENERATORS = {"constructions": constructions, "pointsearch": pointsearch, "descent": descent}
