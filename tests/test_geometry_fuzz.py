"""Fuzzing the geometry loaders through the CLI.

Random points, lines and moduli, with numerators up to a few hundred bits, go
to `geom third-point`, `tangent-residual`, `delta` and `psi` through
`cli.run`.  Every input must end in exit 0, a structured refusal (exit 1) or a
usage error (exit 2), never a traceback, and every point printed with exit 0
must lie on the surface, as the monomial-by-monomial `form_value` sees it on
the coordinates' `Poly` representatives mod f.
Points of the form (a, -a, b, -b), up to the order of the coordinates, lie on
the Fermat cubic over every algebra, so the constructions run to the end on
many of the inputs.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from conftest import evaluate
from zerocycles.cli import run
from zerocycles.geometry import CubicForm, point_from_json

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SURFACES = {
    "fermat": CubicForm.fermat(),
    "dense": CubicForm({(3, 0, 0, 0): 1, (0, 3, 0, 0): -2, (1, 1, 1, 0): Fraction(1, 3), (0, 1, 1, 1): 5,
                        (0, 0, 2, 1): -1, (0, 0, 0, 3): 7}),
}

#: Valid moduli of degree 1 to 3, irreducible and split, some with scale != 1.
MODULI = [[-5, 1], [0, 1], [-2, 0, 1], [0, -1, 1], ["1/3", 0, 1], [-2, 0, 0, 1], [0, -1, 0, 1], ["-1/2", 1, "3/4", 1]]

integers = st.integers(-9, 9).filter(bool) | st.integers(-(2**300), 2**300)
rationals = st.one_of(integers, st.builds(lambda n, d: f"{n}/{d}", integers, st.integers(1, 2**200)))
#: JSON values a coordinate may not be, all refused with exit 1: strings that
#: `Fraction` would read but "num/den" is not, the exponents among them refused
#: before any integer is built
coefficients = rationals | st.sampled_from(
    [1.5, True, None, "1/0", "x", [], {}, "1.5", "1e3", "1_000", " 3/4 ", "1e200000", "1e999999999"])


def mostly(valid, hostile):
    """`valid`, but about one time in eight `hostile`."""
    return st.integers(0, 7).flatmap(lambda k: hostile if k == 5 else valid)


moduli = mostly(
    st.sampled_from(MODULI),
    st.builds(lambda tail, lead: tail + [lead], st.lists(coefficients, max_size=4), st.sampled_from([1, 2, "1/2"])),
)


@st.composite
def on_fermat(draw, size, slots=None):
    """Coordinates (a, -a, b, -b), put in the positions `slots` (a random order when
    not given), each entry a list of `size` coefficients, or a rational when
    `size` is None."""
    a, b = ([draw(rationals) for _ in range(size or 1)] for _ in range(2))
    neg = [[str(-Fraction(x)) if isinstance(x, str) else -x for x in v] for v in (a, b)]
    coords = [None] * 4
    for slot, value in zip(slots or draw(st.permutations(range(4))), (a, neg[0], b, neg[1])):
        coords[slot] = value
    return [c[0] for c in coords] if size is None else coords


vectors = st.lists(rationals, min_size=4, max_size=4)
rational_points = mostly(on_fermat(None) | vectors, st.lists(coefficients))


@st.composite
def algebra_points(draw, modulus=None):
    """A point as JSON over `modulus`, drawn when not given."""
    modulus = modulus or draw(moduli)
    size = max(len(modulus) - 1, 1)
    coords = draw(mostly(on_fermat(size), st.lists(st.lists(coefficients, max_size=size + 1), max_size=5)))
    return {"modulus": modulus, "coords": coords}


points = mostly(on_fermat(None), st.lists(coefficients)) | algebra_points()
#: Two points, rational as a line needs them but for an occasional algebra point.
lines = st.lists(mostly(rational_points, algebra_points()), min_size=2, max_size=2)
axes = st.lists(mostly(vectors, algebra_points()), min_size=2, max_size=2)


@st.composite
def commands(draw):
    command = draw(st.sampled_from(["third-point", "tangent-residual", "delta", "psi"]))
    surface = draw(st.sampled_from(["fermat", "fermat", "fermat", "dense"]))
    argv = ["geom", command, "--surface", json.dumps(SURFACES[surface].to_json())]
    if command == "third-point":  # two points on different lines of the Fermat cubic, mostly
        modulus = draw(st.none() | moduli)
        size = None if modulus is None else max(len(modulus) - 1, 1)
        slots = draw(st.permutations(range(4)))
        for flag, order in (("--x", slots), ("--y", [slots[i] for i in (0, 2, 1, 3)])):
            coords = draw(mostly(on_fermat(size, order), st.lists(coefficients)))
            argv += [flag, json.dumps(coords if modulus is None else {"modulus": modulus, "coords": coords})]
    if command in ("tangent-residual", "psi"):
        argv += ["--axis", json.dumps(draw(axes))]
    if command == "tangent-residual":
        argv += ["--point", json.dumps(draw(points))]
    if command in ("delta", "psi"):
        argv += ["--line", json.dumps(draw(lines))]
    return surface, argv


@hypothesis.settings(max_examples=200, deadline=None, suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(commands())
def test_geometry_loaders_never_crash(surface_and_argv):
    surface, argv = surface_and_argv
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    if code == 0:
        payload = json.loads(out.getvalue())
        point = payload["point"] if "point" in payload else payload["scheme"]["point"]
        assert evaluate(SURFACES[surface], point_from_json(point)).is_zero
