"""Independent, untimed correctness checks for every benchmark op.

Each oracle takes an op (as generated by `gen`) and the parsed canonical JSON
the program printed for it, and returns None when the output is right or a
short reason when it is not.  The oracles use only `fractions` and integer
arithmetic from this directory; none of them calls into `zerocycles`, so a
defect in the program cannot hide itself by also breaking its check.  The
generators use the same constructions to keep instances on which the program
has no legitimate reason to refuse.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import exact

#: Standard skew triple the Chow module straightens lines onto.
STANDARD_LINES = (
    ((0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 0, 0), (0, 1, 0, 0)),
    ((1, 0, 1, 0), (0, 1, 0, 1)),
)

#: Goals of the four bound suites, as the README states them:
#: (max final degree, other allowed degrees, required sign of a nonempty remainder).
GOALS = {
    "cubic": (18, (), None),
    "cubic-x4": (4, (), None),
    "dp2-refined": (7, (12, 13), 1),
    "dp1-refined": (4, (7, 15), None),
}


def fractions(items) -> list:
    return [Fraction(v) for v in items]


def normalized(coords) -> list:
    """Canonical strings of a rational projective point: last nonzero coordinate 1."""
    coords = fractions(coords)
    last = next(c for c in reversed(coords) if c != 0)
    return [exact.q(c / last) for c in coords]


def primitive(coords) -> tuple:
    """Primitive integer vector with positive first nonzero entry."""
    coords = fractions(coords)
    den = math.lcm(*(c.denominator for c in coords))
    ints = [int(c * den) for c in coords]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    if next(v for v in ints if v != 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def terms_of(surface_json: dict) -> dict:
    return {tuple(m["exp"]): Fraction(m["coeff"]) for m in surface_json["monomials"]}


# --- polynomials over Q modulo a monic modulus, lowest degree first ----------

def _pmul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pmod(a, g):
    a = list(a)
    n = len(g) - 1
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k]
        if c:
            for j in range(n + 1):
                a[k - n + j] -= c * g[j]
    return a[:n]


def form_mod(terms: dict, coords, g) -> list:
    """Value of the form at polynomial coordinates, reduced modulo g."""
    total = [Fraction(0)] * (len(g) - 1)
    for exp, coeff in terms.items():
        term = [coeff]
        for c, e in zip(coords, exp):
            for _ in range(e):
                term = _pmod(_pmul(term, c), g)
        term = term + [Fraction(0)] * (len(total) - len(term))
        total = [a + b for a, b in zip(total, term)]
    return total


def _peval(poly, tau):
    return sum((c * tau**k for k, c in enumerate(poly)), Fraction(0))


# --- geometry -----------------------------------------------------------------

def vieta_third(terms: dict, x, y) -> list:
    """Residual point of the secant through x and y on S, by expansion and Vieta."""
    x, y = fractions(x), fractions(y)
    a0, a1, a2, a3 = exact.restrict(terms, x, y)
    if a0 != 0 or a3 != 0:
        raise ValueError("secant endpoints are not on the surface")
    if a2 == 0:
        return y
    t = -a1 / a2
    return [xi + t * yi for xi, yi in zip(x, y)]


def minus_two(a, b, point) -> list:
    """Third intersection of the tangent at (x, y) with y^2 = x^3 + a x + b (group law)."""
    x, y = Fraction(point[0]), Fraction(point[1])
    lam = (3 * x * x + a) / (2 * y)
    rx = lam * lam - 2 * x
    return [rx, lam * (rx - x) + y, Fraction(1), Fraction(0)]


def _gradient(terms: dict, p) -> list:
    out = []
    for i in range(4):
        total = Fraction(0)
        for exp, coeff in terms.items():
            if exp[i]:
                lower = list(exp)
                lower[i] -= 1
                total += coeff * exp[i] * exact.monomial(lower, p)
        out.append(total)
    return out


def _kernel(rows) -> list:
    """Basis of the kernel of a 2x4 rational matrix of rank 2."""
    pivots = None
    for i in range(4):
        for j in range(i + 1, 4):
            if rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i] != 0:
                pivots = (i, j)
                break
        if pivots:
            break
    if pivots is None:
        return []
    i, j = pivots
    basis = []
    for k in (c for c in range(4) if c not in pivots):
        sol = exact.solve([[rows[0][i], rows[0][j]], [rows[1][i], rows[1][j]]],
                        [-rows[0][k], -rows[1][k]])
        v = [Fraction(0)] * 4
        v[i], v[j], v[k] = sol[0], sol[1], Fraction(1)
        basis.append(v)
    return basis


def tangent_residual(terms: dict, axis, p) -> list:
    """Residual point of the tangent line at p to its plane section, computed directly."""
    p = fractions(p)
    a, b = fractions(axis[0]), fractions(axis[1])
    normal = []
    for i in range(4):
        cols = [j for j in range(4) if j != i]
        minor = exact.det([[row[j] for j in cols] for row in (a, b, p)])
        normal.append(minor if i % 2 == 0 else -minor)
    for v in _kernel([normal, _gradient(terms, p)]):
        if exact.rank([p, v]) == 2:
            c0, c1, c2, c3 = exact.restrict(terms, p, v)
            if c0 != 0 or c1 != 0:
                raise ValueError("tangent line without a double root")
            return [c3 * pi - c2 * vi for pi, vi in zip(p, v)]
    raise ValueError("no tangent direction")


def cubic_point_has_tangent_residual(terms: dict, axis, p, r) -> bool:
    """Whether the tangent process is defined at the degree-3 point of the line (p, r).

    The line must meet S in one point of degree 3, so K = Q[t]/(S(p + t r))
    is a field and P = p + t r is that point over K.  The tangent process is
    defined when P is off the axis, its pencil plane is not tangent to S at
    P, and the tangent line meets S with multiplicity exactly 2 at P.
    """
    g = exact.restrict(terms, p, r)
    g = [c / g[3] for c in g]
    point = [[Fraction(a), Fraction(b)] for a, b in zip(p, r)]
    a, b = fractions(axis[0]), fractions(axis[1])

    def scale(c, u):
        return [c * x for x in u]

    def add(u, v):
        n = max(len(u), len(v))
        u, v = u + [Fraction(0)] * (n - len(u)), v + [Fraction(0)] * (n - len(v))
        return [x + y for x, y in zip(u, v)]

    def mul(u, v):
        return _pmod(_pmul(u, v), g)

    normal = []
    for i in range(4):
        cols = [j for j in range(4) if j != i]
        minor = [Fraction(0)]
        for pos, j in enumerate(cols):
            k, l = (c for c in cols if c != j)
            minor = add(minor, scale((-1) ** pos * (a[k] * b[l] - a[l] * b[k]), point[j]))
        normal.append(scale((-1) ** i, minor))
    grad = []
    for i in range(4):
        partial = {}
        for exp, coeff in terms.items():
            if exp[i]:
                lower = list(exp)
                lower[i] -= 1
                partial[tuple(lower)] = partial.get(tuple(lower), 0) + coeff * exp[i]
        grad.append(form_mod(partial, point, g) if partial else [Fraction(0)])
    for i, j in itertools.combinations(range(4), 2):
        pivot = add(mul(normal[i], grad[j]), scale(-1, mul(normal[j], grad[i])))
        if any(pivot):
            break
    else:
        return False  # on the axis, or the pencil plane is tangent at P
    for k in (c for c in range(4) if c not in (i, j)):
        v = [[Fraction(0)] for _ in range(4)]
        v[i] = add(mul(normal[j], grad[k]), scale(-1, mul(normal[k], grad[j])))
        v[j] = add(mul(normal[k], grad[i]), scale(-1, mul(normal[i], grad[k])))
        v[k] = pivot
        independent = any(
            any(add(mul(point[s], v[t]), scale(-1, mul(point[t], v[s]))))
            for s, t in itertools.combinations(range(4), 2))
        if independent:
            break
    else:
        return False
    c3 = form_mod(terms, v, g)
    plus = form_mod(terms, [add(x, y) for x, y in zip(point, v)], g)
    minus = form_mod(terms, [add(x, scale(-1, y)) for x, y in zip(point, v)], g)
    return any(c3) or any(add(plus, minus))


def rational_section(terms, x, y) -> list:
    """The distinct rational points (normalized) where the secant through x, y meets S."""
    third = vieta_third(terms, x, y)
    pts = []
    for pt in (x, y, third):
        key = normalized(pt)
        if key not in pts:
            pts.append(key)
    return pts


def check_third_point(op, payload, surfaces):
    a = op["args"]
    want = normalized(vieta_third(terms_of(surfaces[a["surface"]]), a["x"], a["y"]))
    return None if payload.get("point") == want else f"Vieta gives {want}"


def check_tangent_residual(op, payload, surfaces):
    a = op["args"]
    want = normalized(minus_two(*map(Fraction, a["curve"]), a["point"]))
    return None if payload.get("point") == want else f"group law gives {want}"


def _scheme_on_surface(terms, point):
    g = fractions(point["modulus"])
    coords = [fractions(c) for c in point["coords"]]
    if any(form_mod(terms, coords, g)):
        return "scheme point is not on the surface"
    return None


def check_line_section(op, payload, surfaces):
    a = op["args"]
    scheme = payload["scheme"]
    if scheme["degree"] != 3 or scheme["known_parameters"]:
        return "an irreducible section must be one point of degree 3"
    terms = terms_of(surfaces[a["surface"]])
    bad = _scheme_on_surface(terms, scheme["point"])
    if bad:
        return bad
    # on the line: every 3x3 minor of (point; p; r) vanishes in the algebra
    coords = [fractions(c) for c in scheme["point"]["coords"]]
    p, r = (fractions(v) for v in a["line"])
    width = max(len(c) for c in coords)
    for cols in itertools.combinations(range(4), 3):
        minor = [Fraction(0)] * width
        for pos, j in enumerate(cols):
            k, l = (c for c in cols if c != j)
            cof = (-1) ** pos * (p[k] * r[l] - p[l] * r[k])
            for deg, c in enumerate(coords[j]):
                minor[deg] += cof * c
        if any(minor):
            return "scheme point is off the line"
    return None


def check_tangent_triple(op, payload, surfaces):
    a = op["args"]
    scheme = payload["scheme"]
    terms = terms_of(surfaces[a["surface"]])
    if not a.get("split"):
        if scheme["degree"] != 3 or scheme["known_parameters"]:
            return "an irreducible section must give one point of degree 3"
        return _scheme_on_surface(terms, scheme["point"])
    # split section: evaluate at each known parameter and compare with the
    # tangent process run on the three rational intersection points
    rational = rational_section(terms, *a["line"])
    if not scheme["fully_split"] or len(scheme["known_parameters"]) != len(rational):
        return "a secant section must split into its rational points"
    point = scheme["point"]
    coords = [fractions(c) for c in point["coords"]]
    got = sorted(normalized([_peval(c, Fraction(t)) for c in coords])
                 for t in scheme["known_parameters"])
    want = sorted(normalized(tangent_residual(terms, a["axis"], p)) for p in rational)
    return None if got == want else f"componentwise tangent process gives {want}"


def check_pencil_rank(op, payload, surfaces):
    a = op["args"]
    (u0, u1), (v2, v3), (w0, w1) = a["u"], a["v"], a["w"]
    want = exact.rank([[u0, u1, 0, 0], [0, 0, v2, v3], [w0, w1, -w0, -w1]])
    return None if payload.get("rank") == want else f"rank is {want}"


def check_standardize(op, payload, surfaces):
    t = [fractions(row) for row in payload["transform"]]
    if exact.det(t) == 0:
        return "transform is singular"
    for line, standard in zip(op["args"]["lines"], STANDARD_LINES):
        for p in line:
            image = [sum(r[k] * p[k] for k in range(4)) for r in t]
            if exact.rank([list(standard[0]), list(standard[1]), image]) != 2:
                return "a line is not carried onto its standard line"
    return None


def _recheck_points(payload, terms, height=None):
    """Exact integer recheck of emitted rational points; returns (reason, keys)."""
    keys = []
    for record in payload["points"]:
        coords = record["point"]
        if not isinstance(coords, list) or coords != normalized(coords):
            return "point is not in canonical form", keys
        key = primitive(coords)
        if exact.form_value(terms, key) != 0:
            return f"{coords} is not on the surface", keys
        if record["degree"] != 1:
            return "rational point with degree != 1", keys
        h = max(abs(v) for v in key)
        if height is not None and (record["height"] != h or h > height):
            return f"wrong height for {coords}", keys
        keys.append(key)
    if payload["count"] != len(keys) or len(set(keys)) != len(keys):
        return "count mismatch or duplicate points", keys
    return None, keys


def check_enumerate(op, payload, surfaces):
    a = op["args"]
    bad, keys = _recheck_points(payload, terms_of(surfaces[a["surface"]]), a["height"])
    if bad:
        return bad
    if keys != sorted(keys):
        return "points are not in sorted order"
    if any(r["source"] != "enumerated" for r in payload["points"]):
        return "wrong provenance"
    return None


def check_saturate(op, payload, surfaces):
    a = op["args"]
    bad, keys = _recheck_points(payload, terms_of(surfaces[a["surface"]]))
    if bad:
        return bad
    if not {primitive(s) for s in a["seeds"]} <= set(keys):
        return "a seed point was dropped"
    return None


# --- descent ------------------------------------------------------------------

def replay(cert: dict):
    """Replay a certificate with degree conservation; returns a reason or None.

    Section counts use the closed form 1 + d_S (l^2 + l) / 2, recorded
    witnesses are compared, and the total class degree sign*d + sum(coeffs)
    must stay constant until the replay reaches the recorded final state.
    """
    d_s = cert["surface"]["dS"]
    basis = {"h": d_s, "x4": 4}

    def h0(l):
        return 1 + d_s * (l * l + l) // 2

    def genus(l):
        return 1 + d_s * l * (l - 1) // 2

    def degree_of(combo):
        return sum(basis[k] * v for k, v in combo.items())

    init = cert["initial"]
    sign, d, coeffs = init["sign"], init["unknown_degree"], dict(init.get("coeffs", {}))
    total = sign * d + degree_of(coeffs)
    for idx, move in enumerate(cert["moves"]):
        kind, l = move["kind"], move.get("l")
        combo = move.get("target", move.get("combo", {}))
        witness = {}
        shift = {}
        flip = False
        if kind == "Complement":
            m = l + 1
            witness = {"h0_m": h0(m)}
            if d > h0(m) - 2:
                return f"move {idx}: complement guard"
            d, shift, flip = d_s * m * m - d, {"h": m * m}, True
        elif kind == "VariantComplement":
            witness = {"h0_l": h0(l), "h0_l1": h0(l + 1), "h0_1": h0(1)}
            if h0(l) < d + 1 or h0(l + 1) - d <= h0(1):
                return f"move {idx}: variant complement guard"
            d, shift, flip = d_s * l * (l + 1) - d, {"h": l * (l + 1)}, True
        elif kind == "VBSubtract":
            s = degree_of(combo)
            witness = {"h0_l": h0(l), "h0_l1": h0(l + 1)}
            if not (h0(l) < d and h0(l + 1) - d >= 2 * s and d >= s):
                return f"move {idx}: subtraction guard"
            d, shift = d - s, combo
        elif kind == "InvolutionFlip":
            shift, flip = {"h": d}, True
        elif kind == "CurveRR":
            witness = {"h0_l": h0(l), "genus_l": genus(l)}
            d, shift, flip = degree_of(combo) - d, combo, True
        elif kind == "AddBasis":
            d, shift = d + degree_of(combo), {k: -v for k, v in combo.items()}
        elif kind == "EntryRR" and idx == 0:
            d, shift = d + move["gamma"] * d_s, {"h": -move["gamma"]}
        else:
            return f"move {idx}: unknown or misplaced move {kind}"
        if move.get("witness") and move["witness"] != witness:
            return f"move {idx}: witness {move['witness']} != {witness}"
        for k, v in shift.items():
            coeffs[k] = coeffs.get(k, 0) + sign * v
        if flip:
            sign = -sign
        if d < 0:
            return f"move {idx}: negative degree"
        if d == 0:
            sign = 1
        coeffs = {k: v for k, v in coeffs.items() if v}
        if sign * d + degree_of(coeffs) != total:
            return f"move {idx}: degree not conserved"
    final = cert["final"]
    if (final["sign"], final["unknown_degree"], final.get("coeffs", {})) != (sign, d, coeffs):
        return "final state differs from the replay"
    return None


def _goal_met(goal, sign, d) -> bool:
    max_degree, degrees, want_sign = GOALS[goal]
    ok = (max_degree is not None and d <= max_degree) or d in degrees
    return ok and (want_sign is None or d == 0 or sign == want_sign)


def check_certify(op, payload, surfaces):
    a = op["args"]
    if payload.get("verified") is not True:
        return "certificate not verified"
    if payload["initial"]["unknown_degree"] != a["degree"] or payload["surface"]["dS"] != a["dS"]:
        return "certificate for the wrong start"
    bad = replay(payload)
    if bad:
        return bad
    final = payload["final"]
    return None if _goal_met(a["goal"], final["sign"], final["unknown_degree"]) else "goal missed"


def check_verify(op, payload, surfaces):
    cert = op["args"]["certificate"]
    valid = replay(cert) is None
    if op["args"].get("tampered") and valid:
        return "tampered certificate replays cleanly"
    return None if payload.get("ok") is valid else f"verifier says ok={payload.get('ok')}"


CHECKS = {
    "third_point": check_third_point,
    "tangent_residual": check_tangent_residual,
    "line_section": check_line_section,
    "tangent_triple": check_tangent_triple,
    "pencil_rank": check_pencil_rank,
    "standardize": check_standardize,
    "enumerate": check_enumerate,
    "saturate": check_saturate,
    "certify": check_certify,
    "verify": check_verify,
}
