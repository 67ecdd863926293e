"""Acceptance gate: one check per published bound or construction contract.

Each test prints a PASS/FAIL line (run with `pytest -s` to see them all);
every expected value is either pinned arithmetic or computed by an
independent oracle inside this file or conftest.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from conftest import (
    component_point,
    evaluate,
    expand_along_line,
    random_point,
    secant_instance,
    weierstrass_surface,
)
from zerocycles.algebra import ZeroDivisorFound
from zerocycles.chow import (
    CurveDegrees,
    collinearity_report,
    diagonal_triple,
    matrix_rank,
    pencil_rank,
)
from zerocycles.descent import (
    DelPezzo,
    GOALS,
    effectivity_threshold_report,
    find_certificate,
    h0,
    prove_bound_suite,
    verify_certificate,
)
from zerocycles.geometry import (
    CubicForm,
    GeometryError,
    Line,
    LineInSurface,
    PlanePencil,
    ProjPoint,
    line_section,
    tangent_residual,
    tangent_triple,
    third_point,
)


def check(name: str, ok: bool):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_c1_riemann_roch_table():
    t0 = time.time()
    table = {
        (3, 2): 10,
        (3, 3): 19,
        (3, 4): 31,
        (2, 2): 7,
        (2, 3): 13,
        (1, 5): 16,
    }
    ok = all(h0(d_S, l) == value for (d_S, l), value in table.items())
    ok = ok and (time.time() - t0) < 0.1
    check("C1 section-count table", ok)


def test_c2_cubic_suites_under_10s():
    t0 = time.time()
    plain = prove_bound_suite(DelPezzo(3), GOALS["cubic"], ceiling=200)
    refined = prove_bound_suite(DelPezzo(3, with_x4=True), GOALS["cubic-x4"], ceiling=200)
    elapsed = time.time() - t0
    ok = (
        plain.all_verified
        and plain.max_final_degree <= 18
        and len(plain.rows) == 200
        and refined.all_verified
        and refined.max_final_degree <= 4
        and elapsed < 10.0
    )
    check(f"C2 cubic descent suites (<=18 and <=4, {elapsed:.2f}s)", ok)


def test_c3_coray_reproduction():
    surface = DelPezzo(3)
    ok = True
    for degree in [d for d in range(1, 18) if d % 3 != 0]:
        cert = find_certificate(surface, degree, GOALS["coray"])
        ok = ok and verify_certificate(cert).ok
        ok = ok and cert.final.unknown_degree in (1, 4)
    cert10 = find_certificate(surface, 10, GOALS["coray"])
    golden = (Path(__file__).parent / "golden" / "coray_d10.json").read_text()
    ok = ok and json.dumps(cert10.to_json(), indent=2, sort_keys=True) + "\n" == golden
    steps = [(m.kind, m.l) for m in cert10.moves]
    ok = ok and steps == [
        ("AddBasis", None),
        ("Complement", 2),  # the 9h complement
        ("VBSubtract", 2),
        ("Complement", 1),
    ]
    # replay: after the 9h complement the identity is z = -z'' + 7h, deg 11
    report = verify_certificate(cert10)
    mid = report.states[2]
    ok = ok and (mid.sign, mid.unknown_degree, mid.coeff_dict()) == (-1, 11, {"h": 7})
    check("C3 minimal coprime degrees land in {1, 4} with golden chain", ok)


def test_c4_dp2_suite_and_thresholds():
    dp2 = DelPezzo(2)
    plain = prove_bound_suite(dp2, GOALS["dp2"], ceiling=200)
    refined = prove_bound_suite(dp2, GOALS["dp2-refined"], ceiling=200)
    finals = {r.final_degree for r in refined.rows}
    t13 = effectivity_threshold_report(dp2, 13, ceiling=200)
    t12 = effectivity_threshold_report(dp2, 12, ceiling=200, even_only=True)
    ok = (
        plain.all_verified
        and plain.max_final_degree <= 13
        and refined.all_verified
        and finals <= set(range(0, 8)) | {12, 13}
        and t13["all_effective"]
        and t12["all_effective"]
    )
    check("C4 degree-2 suite (<=13, refined {13,12,<=7}, thresholds 13/12)", ok)


def test_c5_dp1_suite_and_threshold():
    dp1 = DelPezzo(1)
    plain = prove_bound_suite(dp1, GOALS["dp1"], ceiling=200)
    refined = prove_bound_suite(dp1, GOALS["dp1-refined"], ceiling=200)
    finals = {r.final_degree for r in refined.rows}
    t15 = effectivity_threshold_report(dp1, 15, ceiling=200)
    ok = (
        plain.all_verified
        and plain.max_final_degree <= 15
        and refined.all_verified
        and finals <= set(range(0, 5)) | {7, 15}
        and t15["all_effective"]
    )
    check("C5 degree-1 suite (<=15, refined {15,7,<=4}, threshold 15)", ok)


def test_c6_chow_degrees():
    report = collinearity_report(CurveDegrees(6, 6, 6), pair_points=12)
    ok = (
        report["deg_D2"] == 216
        and report["deg_D2_prime"] == 72
        and report["strict_inequality"] is True
    )
    check("C6 collinearity-locus degrees 216 > 72", ok)


def test_c7_pencil_condition_samples():
    rng = random.Random(314)
    ok = True
    for _ in range(200):
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        if (a, b) == (0, 0):
            a = 1
        ok = ok and pencil_rank(*diagonal_triple((a, b))) == 2
    done = 0
    while done < 200:
        u = (rng.randint(-9, 9), rng.randint(-9, 9))
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        w = (rng.randint(-9, 9), rng.randint(-9, 9))
        if any(p == (0, 0) for p in (u, v, w)):
            continue
        if matrix_rank([list(u), list(v)]) < 2 and matrix_rank([list(u), list(w)]) < 2:
            continue
        ok = ok and pencil_rank(u, v, w) == 3
        done += 1
    check("C7 pencil condition: 200 diagonal rank-2, 200 off-diagonal rank-3", ok)


def _vieta_oracle_third_point(surface, x, y):
    """Independent residual-point computation via full polynomial expansion."""
    p = x.rational_coords()
    q = y.rational_coords()
    poly = expand_along_line(surface, p, q)
    coeffs = [poly.coeff(k) for k in range(4)]
    assert coeffs[0] == 0 and coeffs[3] == 0  # both basepoints on the surface
    c1, c2 = coeffs[1], coeffs[2]
    if c1 == 0 and c2 == 0:
        raise LineInSurface("oracle: secant inside the surface")
    if c2 == 0:
        return y
    root = -c1 / c2
    return ProjPoint.rational([a + root * b for a, b in zip(p, q)])


def test_c8_geometry_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(2718)

    # (a) chord construction vs expansion-and-Vieta oracle, 1000 instances
    done = 0
    ok = True
    while done < 1000:
        instance = secant_instance(rng)
        if instance is None:
            continue
        surface, x, y = instance
        try:
            got = third_point(surface, x, y)
        except LineInSurface:
            continue
        ok = ok and got == _vieta_oracle_third_point(surface, x, y)
        done += 1

    # (b) tangent process vs chord-tangent doubling on Weierstrass sections
    def minus_two(a, xy):
        px, py = Fraction(xy[0]), Fraction(xy[1])
        if py == 0:
            return None
        lam = (3 * px * px + a) / (2 * py)
        rx = lam * lam - 2 * px
        return (rx, lam * (rx - px) + py)

    def axis_for(point):
        coords = point.rational_coords()
        j = next(i for i in range(3) if coords[i] != 0)
        vecs = []
        for i in range(3):
            if i == j:
                continue
            v = [0, 0, 0, 0]
            v[i] = 1
            vecs.append(v)
        return Line.rational(*vecs)

    curve_points = [
        (-1, 0, (-1, 0)),  # the pinned curve and point
        (-1, 1, (0, 1)),
        (-1, 1, (1, 1)),
        (-1, 1, (-1, 1)),
        (-4, 4, (0, 2)),
        (-4, 4, (2, 2)),
        (-4, 4, (-2, 2)),
        (1, 1, (0, 1)),
        (3, 1, (0, 1)),
        (-7, 10, (1, 2)),
        (-7, 10, (3, 4)),
    ]
    for a, b, xy in curve_points:
        surface = weierstrass_surface(a, b)
        point = ProjPoint.rational([xy[0], xy[1], 1, 0])
        got = tangent_residual(surface, PlanePencil(axis_for(point)), point)
        expected = minus_two(Fraction(a), xy)
        if expected is None:
            ok = ok and got == ProjPoint.rational([0, 1, 0, 0])
        else:
            ok = ok and got == ProjPoint.rational([expected[0], expected[1], 1, 0])

    # (c) the triple map on split sections vs componentwise tangent process
    done = 0
    while done < 100:
        instance = secant_instance(rng)
        if instance is None:
            continue
        surface, x, y = instance
        try:
            section = line_section(surface, Line(x, y))
            if not section.fully_split:
                continue
            axis = Line.rational(random_point(rng), random_point(rng))
            triple = tangent_triple(surface, PlanePencil(axis), Line(x, y))
        except (GeometryError, ZeroDivisorFound, ValueError):
            continue
        for tau in section.known_parameters:
            direct = tangent_residual(
                surface, PlanePencil(axis), component_point(section.point, tau)
            )
            ok = ok and component_point(triple.point, tau) == direct
        done += 1

    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    check(f"C8 oracle equivalence (1000 chords, group law, 100 triples, {elapsed:.1f}s)", ok)


def test_c9_triple_map_productivity():
    surfaces = [
        CubicForm.fermat(),
        CubicForm({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 2}),
        CubicForm({(3, 0, 0, 0): 1, (0, 3, 0, 0): 2, (0, 0, 3, 0): 3, (0, 0, 0, 3): -6}),
    ]
    ok = True
    for surface in surfaces:
        rng = random.Random(4242)
        outputs = set()
        for _ in range(50):
            try:
                line = Line.rational(random_point(rng, 3), random_point(rng, 3))
                axis = Line.rational(random_point(rng, 3), random_point(rng, 3))
                scheme = tangent_triple(surface, PlanePencil(axis), line)
            except (GeometryError, ZeroDivisorFound, ValueError):
                continue
            ok = ok and evaluate(surface, scheme.point).is_zero
            outputs.add(json.dumps(scheme.to_json(), sort_keys=True))
        ok = ok and len(outputs) >= 20
    check("C9 triple-map productivity (>=20 distinct outputs per surface)", ok)


def test_c10_limitations_documented():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    ok = "## Limitations" in readme
    for phrase in ("rational equivalence", "dominan", "stable rationality"):
        ok = ok and phrase in readme
    check("C10 non-reproducible fragments documented as limitations", ok)
