"""Fuzzing the point-search loaders through the CLI.

Random surface JSON and `--seeds` lists go to `points enum` and `points
saturate` through `cli.run`.  Every input must end in exit 0, a structured
refusal (exit 1) or a usage error (exit 2), never a traceback, and every point
printed with exit 0 must lie on the surface, as the monomial-by-monomial
`form_value` sees it (`evaluate`).  The surfaces are sums of terms that vanish
wherever x_j = -x_i for both pairs {i, j} of one pairing of the coordinates, so a seed
(a, -a, b, -b) in those slots lies on the surface and saturation runs; terms
that mix the two pairs send enumeration down the scan instead of the join.
Hostile entries replace a valid one about one time in eight.
"""

import contextlib
import io
import json

import pytest

from conftest import evaluate
from zerocycles.cli import run
from zerocycles.geometry import CubicForm, point_from_json

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

integers = st.sampled_from([-3, -2, -1, 1, 2, 5]) | st.integers(1, 2**300) | st.integers(-(2**300), -1)
rationals = st.one_of(integers, st.builds(lambda n, d: f"{n}/{d}", integers, st.integers(1, 2**64)))
#: JSON values a coefficient may not be, all refused with exit 1: among them strings
#: that `Fraction` would read but "num/den" is not, the exponents refused before any
#: integer is built
hostile_coefficients = st.sampled_from([1.5, 0.0, True, False, None, "1/0", "x", [], {}, "1.5", "1e3", "1_000",
                                        " 3/4 ", "1e200000", "1e999999999"])
#: exponent vectors that are not degree-3 vectors on 4 variables, or not JSON integers
bad_exponents = st.sampled_from(
    [[3, 0, 0], [3, 0, 0, 0, 0], [4, 0, 0, -1], [1, 1, 0, 0], [2, 2, 0, 0], [1.0, 1, 1, 0], [True, 1, 1, 0],
     ["3", 0, 0, 0], [2**70, 0, 0, 3 - 2**70], 5, None]
)
#: seeds that are refused: off the surface (mostly), no rational normal form, not a point
hostile_seeds = st.one_of(
    st.lists(st.integers(-4, 4), min_size=3, max_size=3).map(lambda v: v + [1]),
    st.just({"modulus": ["-2", "0", "1"], "coords": [["0", "1"], ["1"], ["0"], ["1"]]}),
    st.just({"modulus": ["-1", "0", "1"], "coords": [["0", "1"], ["1"], ["0"], ["1"]]}),
    st.lists(hostile_coefficients, max_size=5),
    hostile_coefficients,
)
#: What one input spoils, if anything: about half the inputs are valid.
SPOILS = (None,) * 6 + ("exponent", "coefficient", "seed", "seeds", "flag")
FLAGS = {"--height": ("1", "2", "3"), "--rounds": ("0", "1", "2"), "--max-points": ("0", "3", "12")}
BAD_FLAGS = {"--height": ("0", "-1", "x", "257"), "--rounds": ("-1", "x"), "--max-points": ("-2", "1.5")}


def exponent(*slots) -> list:
    out = [0, 0, 0, 0]
    for slot in slots:
        out[slot] += 1
    return out


def vanishing_terms(pairing) -> list:
    """Exponent groups, each summed with one coefficient, that vanish at x_j = -x_i
    for both pairs (i, j) of the pairing: x_i^3 + x_j^3 and x_i^2 x_j + x_i x_j^2 on
    each pair, and x_k x_l (x_i + x_j), which mixes the pairs."""
    groups = []
    for (a, b), (c, d) in (pairing, pairing[::-1]):
        groups.append([exponent(a, a, a), exponent(b, b, b)])
        groups.append([exponent(a, a, b), exponent(a, b, b)])
        groups.append([exponent(c, d, a), exponent(c, d, b)])
    return groups


@st.composite
def surfaces(draw, pairing, spoil):
    """Surface JSON: vanishing terms of the pairing with random coefficients, one exponent
    vector or coefficient made hostile when that is the spoil."""
    groups = vanishing_terms(pairing)
    chosen = draw(st.lists(st.sampled_from(range(len(groups))), min_size=1, max_size=4, unique=True))
    monomials = []
    for g in chosen:
        coeff = draw(rationals)
        monomials += [{"exp": exp, "coeff": coeff} for exp in groups[g]]
    victim = draw(st.sampled_from(monomials))
    if spoil == "exponent":
        victim["exp"] = draw(bad_exponents)
    if spoil == "coefficient":
        victim["coeff"] = draw(hostile_coefficients)
    return {"vars": 4, "degree": 3, "monomials": monomials}


@st.composite
def on_surface(draw, pairing):
    """(a, -a, b, -b) in the slots of the pairing, as JSON rationals, over Q or now
    and then over the degree-1 algebra Q[t]/(t - 5)."""
    a = draw(st.integers(-4, 4))
    b = draw(st.integers(-4, 4) if a else st.sampled_from([-3, -1, 1, 4]))
    coords = [None] * 4
    for (i, j), v in zip(pairing, (a, b)):
        coords[i], coords[j] = str(v), str(-v)
    if draw(st.integers(0, 7)) == 5:
        return {"modulus": ["-5", "1"], "coords": [[c] for c in coords]}
    return coords


@st.composite
def seeds(draw, pairing, spoil):
    """A seed list of on-surface points; one of them hostile, or the whole list a
    hostile value, when that is the spoil."""
    points = draw(st.lists(on_surface(pairing), min_size=1, max_size=3))
    if spoil == "seed":
        points[draw(st.integers(0, len(points) - 1))] = draw(hostile_seeds)
    return draw(hostile_coefficients) if spoil == "seeds" else points


@st.composite
def commands(draw):
    spoil = draw(st.sampled_from(SPOILS))
    pairing = draw(st.sampled_from(PAIRINGS))
    surface = draw(surfaces(pairing, spoil))
    command = draw(st.sampled_from(["enum", "saturate"]))
    argv = ["points", command, "--surface", json.dumps(surface)]
    if command == "saturate":
        argv += ["--seeds", json.dumps(draw(seeds(pairing, spoil)))]
    flags = ["--height"] if command == "enum" else ["--rounds", "--max-points"]
    bad = draw(st.sampled_from(flags)) if spoil == "flag" else None
    for flag in flags:
        argv += [flag, draw(st.sampled_from(BAD_FLAGS[flag] if flag == bad else FLAGS[flag]))]
    return surface, argv


@hypothesis.settings(max_examples=150, deadline=None, suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(commands())
def test_point_search_loaders_never_crash(surface_and_argv):
    surface, argv = surface_and_argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    hypothesis.event(f"{argv[1]}: exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert set(json.loads(out.getvalue())) == {"error"}
    if code == 0:
        form = CubicForm.from_json(surface)
        payload = json.loads(out.getvalue())
        assert payload["count"] == len(payload["points"])
        hypothesis.event(f"{argv[1]}: {'no point' if not payload['count'] else 'points'}")
        for record in payload["points"]:
            assert evaluate(form, point_from_json(record["point"])).is_zero
