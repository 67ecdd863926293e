import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from zerocycles.cli import run
from zerocycles.geometry import CubicForm, point_from_json


@pytest.fixture
def fermat_path(tmp_path):
    path = tmp_path / "fermat.json"
    path.write_text(json.dumps(CubicForm.fermat().to_json()))
    return str(path)


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGeom:
    def test_third_point(self, capsys, fermat_path):
        code, out = run_cli(
            capsys,
            "geom",
            "third-point",
            "--surface",
            fermat_path,
            "--x",
            '["1","-1","0","0"]',
            "--y",
            '["0","1","-1","0"]',
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["point"] == ["-1", "0", "1", "0"]

    def test_delta_split(self, capsys, fermat_path):
        code, out = run_cli(
            capsys,
            "geom",
            "delta",
            "--surface",
            fermat_path,
            "--line",
            '[["1","-1","0","0"],["0","1","-1","0"]]',
        )
        assert code == 0
        scheme = json.loads(out)["scheme"]
        assert scheme["degree"] == 3 and scheme["fully_split"]

    def test_psi(self, capsys, fermat_path):
        code, out = run_cli(
            capsys,
            "geom",
            "psi",
            "--surface",
            fermat_path,
            "--axis",
            '[["1","1","1","1"],["1","2","4","8"]]',
            "--line",
            '[["1","-1","0","0"],["0","1","-1","0"]]',
        )
        assert code == 0
        assert json.loads(out)["scheme"]["degree"] == 3

    def test_domain_error_is_structured(self, capsys, fermat_path):
        code, out = run_cli(
            capsys,
            "geom",
            "delta",
            "--surface",
            fermat_path,
            "--line",
            '[["1","-1","0","0"],["0","0","1","-1"]]',
        )
        assert code == 1
        payload = json.loads(out)  # single well-formed JSON document
        assert payload["error"]["kind"] == "LineInSurface"

    def test_tangent_residual(self, capsys, tmp_path):
        # y^2 z = x^3 - x z^2 section: residual of the tangent at (-1,0,1)
        surface = CubicForm(
            {(0, 2, 1, 0): 1, (3, 0, 0, 0): -1, (1, 0, 2, 0): 1, (0, 0, 0, 3): 1}
        )
        path = tmp_path / "w.json"
        path.write_text(json.dumps(surface.to_json()))
        code, out = run_cli(
            capsys,
            "geom",
            "tangent-residual",
            "--surface",
            str(path),
            "--axis",
            '[["0","1","0","0"],["0","0","1","0"]]',
            "--point",
            '["-1","0","1","0"]',
        )
        assert code == 0
        assert json.loads(out)["point"] == ["0", "1", "0", "0"]

    def test_check_smooth(self, capsys, fermat_path):
        code, out = run_cli(
            capsys, "geom", "check-smooth", "--surface", fermat_path, "--height", "1"
        )
        assert code == 0
        assert json.loads(out)["smooth_on_sample"] is True

    def test_check_smooth_flags_singular_point(self, capsys, tmp_path):
        # cone-like form: singular at (0,0,0,1), which lies on the surface
        surface = CubicForm({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1})
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(surface.to_json()))
        code, out = run_cli(
            capsys, "geom", "check-smooth", "--surface", str(path), "--height", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["smooth_on_sample"] is False
        assert ["0", "0", "0", "1"] in payload["singular_points"]

    def test_usage_error_exit_2(self, fermat_path):
        with pytest.raises(SystemExit) as info:
            run(["geom", "third-point", "--surface", fermat_path])
        assert info.value.code == 2


class TestChow:
    def test_report_values(self, capsys):
        code, out = run_cli(capsys, "chow", "report")
        assert code == 0
        payload = json.loads(out)
        assert payload["deg_D2"] == 216
        assert payload["deg_D2_prime"] == 72
        assert payload["strict_inequality"] is True

    def test_pencil_sampling(self, capsys):
        code, out = run_cli(capsys, "chow", "pencil", "--samples", "25", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["diagonal_rank_counts"] == {"2": 25}
        assert payload["off_diagonal_rank_counts"] == {"3": 25}

    def test_pencil_takes_every_sample_it_draws(self, capsys):
        # (a, b) = (-1, 0) makes the third plane parameter (a + 1, b) zero; it is
        # patched as the second one is, so no seed refuses its own samples
        for seed in range(10):
            code, out = run_cli(capsys, "chow", "pencil", "--samples", "1000", "--seed", str(seed))
            assert code == 0, out
            payload = json.loads(out)
            assert sum(payload["diagonal_rank_counts"].values()) == 1000
            assert sum(payload["off_diagonal_rank_counts"].values()) == 1000


class TestDescent:
    def test_certify_verify_roundtrip(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, _ = run_cli(
            capsys,
            "descent",
            "certify",
            "--dS",
            "3",
            "--degree",
            "10",
            "--goal",
            "coray",
            "--out",
            str(cert_path),
        )
        assert code == 0
        code, out = run_cli(capsys, "descent", "verify", str(cert_path))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_suite_rows(self, capsys):
        code, out = run_cli(capsys, "descent", "suite", "--dS", "2", "--ceiling", "40")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_verified"] and payload["max_final_degree"] <= 13
        assert len(payload["rows"]) == 40

    def test_threshold(self, capsys):
        code, out = run_cli(
            capsys,
            "descent",
            "threshold",
            "--dS",
            "1",
            "--threshold",
            "15",
            "--ceiling",
            "40",
        )
        assert code == 0
        assert json.loads(out)["all_effective"] is True

    def test_not_found_is_domain_error(self, capsys):
        code, out = run_cli(
            capsys, "descent", "certify", "--dS", "3", "--degree", "3", "--goal", "coray"
        )
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "CertificateNotFound"


    @pytest.mark.parametrize("d_S", ["3", "2", "1"])
    def test_huge_degree_is_refused_fast(self, capsys, d_S):
        start = time.perf_counter()
        code, out = run_cli(capsys, "descent", "certify", "--dS", d_S, "--degree", str(10**12))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "DegreeOutOfRange"


class TestPoints:
    def test_enum(self, capsys, fermat_path):
        code, out = run_cli(
            capsys, "points", "enum", "--surface", fermat_path, "--height", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 9

    def test_saturate(self, capsys, fermat_path):
        code, out = run_cli(
            capsys,
            "points",
            "saturate",
            "--surface",
            fermat_path,
            "--seeds",
            '[["1","-1","0","0"],["0","1","-1","0"]]',
            "--rounds",
            "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] >= 3

    @pytest.mark.parametrize(
        "seeds, rational",
        [
            # (i : -i : 0 : 0) over Q(i) is the rational point (1 : -1 : 0 : 0)
            ([{"modulus": [1, 0, 1], "coords": [[0, 1], [0, -1], [0], [0]]}], [[1, -1, 0, 0]]),
            # a seed over Q[t]/(t - 2) next to a plain rational seed
            (
                [{"modulus": [-2, 1], "coords": [[1], [-1], [0], [0]]}, [0, 1, -1, 0]],
                [[1, -1, 0, 0], [0, 1, -1, 0]],
            ),
        ],
        ids=["Q(i)", "Q[t]/(t-2)"],
    )
    def test_saturation_seeds_are_rebased_onto_q(self, capsys, fermat_path, seeds, rational):
        outs = []
        for given in (seeds, rational):
            argv = ["points", "saturate", "--surface", fermat_path, "--seeds", json.dumps(given), "--rounds", "1"]
            code, out = run_cli(capsys, *argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        points = [record["point"] for record in json.loads(outs[0])["points"]]
        assert points.count(["-1", "1", "0", "0"]) == 1
        assert all(isinstance(p, list) for p in points)

    @pytest.mark.parametrize(
        "seed",
        [
            # (1 : -1 : i : -i) lies on the Fermat cubic, with no rational normal form
            {"modulus": [1, 0, 1], "coords": [[1], [-1], [0, 1], [0, -1]]},
            # over Q[t]/(t^2 - t) no coordinate of (t : t : 0 : 0) is a unit
            {"modulus": [0, -1, 1], "coords": [[0, 1], [0, 1], [0], [0]]},
        ],
        ids=["Q(i)", "no-unit"],
    )
    def test_irrational_saturation_seed_is_refused(self, capsys, fermat_path, seed):
        seeds = json.dumps([[0, 1, -1, 0], seed])
        code, out = run_cli(capsys, "points", "saturate", "--surface", fermat_path, "--seeds", seeds, "--rounds", "1")
        assert code == 1
        error = {"kind": "ValueError", "message": "saturation seeds must be rational points"}
        assert json.loads(out) == {"error": error}


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, fermat_path):
        argv = [
            "geom",
            "psi",
            "--surface",
            fermat_path,
            "--axis",
            '[["1","1","1","1"],["1","2","4","8"]]',
            "--line",
            '[["1","-1","0","0"],["0","1","-1","0"]]',
        ]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second
        code, suite_one = run_cli(capsys, "descent", "suite", "--dS", "1", "--ceiling", "25")
        assert code == 0
        _, suite_two = run_cli(capsys, "descent", "suite", "--dS", "1", "--ceiling", "25")
        assert suite_one == suite_two


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_process_env():
    # COLUMNS pins argparse's help width, which is read at format time
    return dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")


class TestLineSectionPins:
    """`geom delta` and `geom psi` outputs, pinned by sha256.  `line_section` runs on
    the basepoints' primitive integer vectors but keeps the chart of their raw
    coordinates, so these lines carry fractional, negative and scaled basepoints,
    basepoints on the surface (the reparametrization shift), a non-reduced
    section, sections of degree 1, 2 and 3, and refusals."""

    SURFACES = {
        "fermat": CubicForm.fermat(),
        "dense": CubicForm({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1,
                            (1, 1, 1, 0): 1, (0, 1, 1, 1): -2, (2, 0, 0, 1): Fraction(1, 3)}),
    }
    AXIS1 = [[1, 0, 0, 0], [0, 1, 0, 0]]
    AXIS2 = [[1, 2, 0, -1], [0, "1/2", 3, 1]]

    @pytest.mark.parametrize(
        "command, surface, axis, line, exit_code, sha256",
        [
            ("delta", "fermat", None, [[0, "-3/2", "3/2", 0], ["-8/7", "-5/4", "5/4", "-1/3"]], 0, "4b0461614e6b10a34c210fc0ab327a86cf5e2204bb1c4526885850d8150cad7c"),
            ("psi", "fermat", "AXIS2", [[0, "-3/2", "3/2", 0], ["-8/7", "-5/4", "5/4", "-1/3"]], 0, "4b0461614e6b10a34c210fc0ab327a86cf5e2204bb1c4526885850d8150cad7c"),
            ("delta", "fermat", None, [[1, -3, -1, -1], [1, 0, 0, -1]], 0, "24d4ba105f600682c5aab7624f09a754693a342d261980ebd43e87d34d71ce7c"),
            ("psi", "fermat", "AXIS2", [[1, -3, -1, -1], [1, 0, 0, -1]], 0, "24d4ba105f600682c5aab7624f09a754693a342d261980ebd43e87d34d71ce7c"),
            ("delta", "dense", None, [[2, -2, 0, 0], ["43/9", -4, 3, 2]], 0, "be803666e616751af011f6d683ed5f2ff76939b49f86bd238c3ea3a60f346004"),
            ("psi", "dense", "AXIS1", [[2, -2, 0, 0], ["43/9", -4, 3, 2]], 1, "94703f0cb39d30501b7e09dfd6c5fd98f1dbe1d093efc71688d5c32fd907c273"),
            ("psi", "dense", "AXIS2", [[2, -2, 0, 0], ["43/9", -4, 3, 2]], 0, "6ae7274cababd474b620d243c16a22a15d0105328a82132825664aaf2fb2c908"),
            ("delta", "dense", None, [[0, 0, 2, -2], [-9, 0, 1, -1]], 0, "5a66e739e850709922102d0948ddcfea37565c04cc49e4b4f6d2babb94d5eaef"),
            ("psi", "dense", "AXIS1", [[0, 0, 2, -2], [-9, 0, 1, -1]], 0, "9eddae91c9a5f145b3bf9985480ea9b5a44c7d8da6317300d1cccf0d23d883bb"),
            ("psi", "dense", "AXIS2", [[0, 0, 2, -2], [-9, 0, 1, -1]], 0, "663db3c02f1a01afc96d7f58c1d022681abf665d56cac80e1a496698057fc855"),
            ("delta", "dense", None, [["-9/7", -2, 2, 3], [-3, 3, -5, -9]], 0, "271461d4277bd6fa5e529a6caea436efa651ab217432029835266ce693af7b32"),
            ("psi", "dense", "AXIS1", [["-9/7", -2, 2, 3], [-3, 3, -5, -9]], 0, "d484c8900791db036cc9a10fc6edc39871993c57168086d3b478a9e7869cbe42"),
            ("psi", "dense", "AXIS2", [["-9/7", -2, 2, 3], [-3, 3, -5, -9]], 0, "440c3901139a5c593383f1f83bb8baf72049affe6afffeeb7437bdb181331f36"),
            ("delta", "fermat", None, [["-1/7", 5, "-3/2", -3], [1, 0, -1, 0]], 0, "e152b6ea0e6619ac9f409c68764a71de435927de646fd1bac9cd38c3d6319042"),
            ("psi", "fermat", "AXIS2", [["-1/7", 5, "-3/2", -3], [1, 0, -1, 0]], 0, "b2b1ee6f60c83c3ee9327d52653355d122e9ca9d36108c4fc3fcdb69701afe01"),
            ("delta", "fermat", None, [[-1, 1, 0, 0], [0, "1/3", 0, "-1/3"]], 0, "8a58a6b5e4b507babceede19b551f5c79465a071c69892fece7291d9486427e8"),
            ("psi", "fermat", "AXIS2", [[-1, 1, 0, 0], [0, "1/3", 0, "-1/3"]], 0, "f70d01ac38eaeadf5ce742b6f0392841e4669da33ddeaec005ede653e23ee23c"),
            ("delta", "dense", None, [[2, -2, 0, 0], [-2, 0, 2, 0]], 0, "4ac96bcb8f78cbf6d182de87396c96a97cf2ab737ec5db6dec04940a4d724f09"),
            ("psi", "dense", "AXIS2", [[2, -2, 0, 0], [-2, 0, 2, 0]], 0, "3b3e0bead37b4c393418c437652c306c106539ee1e2748dce2719e587df05caa"),
            ("delta", "fermat", None, [[0, "5/7", "-5/7", 0], [1, 0, 0, -1]], 1, "c287e6c6d23f245dc4d8c543da6a7a3cd698a6584fda3a952f05f75e11770259"),
            ("psi", "fermat", "AXIS2", [[0, "5/7", "-5/7", 0], [1, 0, 0, -1]], 1, "c287e6c6d23f245dc4d8c543da6a7a3cd698a6584fda3a952f05f75e11770259"),
            ("delta", "dense", None, [[0, -1, 1, 0], ["-1/3", 0, "-1/6", 4]], 0, "243e89b385923732fecf6630ea40e8312222b0dc79fabdeb540446255f063c48"),
            ("psi", "dense", "AXIS2", [[0, -1, 1, 0], ["-1/3", 0, "-1/6", 4]], 0, "b7e72f1fa954f71bb8ec6803c7dc220625af0588f1c82b510a4ddb4de1289a4d"),
        ],
        ids=[
            "d1-frac-scaled", "p1", "d1-shift", "p1-shift", "d2-frac-scaled", "p2-on-axis", "p2",
            "d2", "p2-ax1", "p2-ax2", "d3-frac-neg", "p3-ax1", "p3-ax2", "d3-frac-shift", "p3-frac-shift",
            "d3-split-neg-scaled", "p3-split", "d3-split-scaled", "p3-split-scaled", "d-in-surface",
            "p-in-surface", "d3-frac-one-known", "p3-frac-one-known",
        ],
    )
    def test_pinned_output(self, capsys, tmp_path, command, surface, axis, line, exit_code, sha256):
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(self.SURFACES[surface].to_json()))
        argv = ["geom", command, "--surface", str(path), "--line", json.dumps(line)]
        if axis is not None:
            argv += ["--axis", json.dumps(getattr(self, axis))]
        code, out = run_cli(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


class TestParserReuse:
    """`run` builds its parser once per process; reusing it must carry nothing
    from one call to the next."""

    def test_calls_match_fresh_processes(self, capsys, monkeypatch, fermat_path):
        monkeypatch.setenv("COLUMNS", "80")
        calls = [
            ["descent", "certify", "--dS", "3", "--degree", "100"],
            ["geom", "third-point", "--surface", fermat_path],  # usage error
            ["geom", "third-point", "--surface", fermat_path,
             "--x", '["1","-1","0","0"]', "--y", '["0","1","-1","0"]'],
            ["--help"],
            ["points", "enum", "--surface", fermat_path, "--height", "1"],
            ["descent", "certify", "--help"],
            ["descent", "certify", "--dS", "3", "--degree", "100"],
        ]
        flags = ["-O"] if sys.flags.optimize else []
        codes = []
        for argv in calls:
            try:
                code = run(argv)
            except SystemExit as exit_:
                code = exit_.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, *flags, "-m", "zerocycles.cli", *argv],
                env=_fresh_process_env(), capture_output=True, text=True, timeout=120,
            )
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.append(code)
        assert codes == [0, 2, 0, 0, 0, 0, 0]

    def test_parser_is_built_on_first_run_only(self):
        script = """
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from zerocycles import cli
at_import = len(built)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(["descent", "certify", "--dS", "3", "--degree", "100"]) for _ in range(20)]
after_runs = len(built)
cli.build_parser()
print(json.dumps({"at_import": at_import, "after_runs": after_runs,
                  "one_build": len(built) - after_runs, "codes": codes}))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], env=_fresh_process_env(), capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["at_import"] == 0
        assert result["one_build"] > 0
        assert result["after_runs"] == result["one_build"]
        assert result["codes"] == [0] * 20


def _surface(terms) -> str:
    return json.dumps(CubicForm(terms).to_json())


_WEIERSTRASS = _surface({(0, 2, 1, 0): 1, (3, 0, 0, 0): -1, (1, 0, 2, 0): 1, (0, 0, 0, 3): 1})
_CUBE_ROOT_2 = _surface({(3, 0, 0, 0): 1, (0, 3, 0, 0): -2, (0, 0, 0, 3): 1})
#: A point of degree 3 on the Fermat cubic (its section by a generic line).
_DEGREE3 = json.dumps(
    {
        "modulus": ["36", "-15", "15", "1"],
        "coords": [
            ["13/51", "2/17", "1/153"], ["14/51", "10/17", "5/153"], ["-4/17", "6/17", "1/51"], ["1"],
        ],
    }
)
_SPLIT_LINE = '[["1","-1","0","0"],["0","1","-1","0"]]'
_AXIS = '[["1","1","1","1"],["1","2","4","8"]]'


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ["geom", "third-point", "--x", '["1","-1","0","0"]', "--y", '["0","1","-1","0"]'],
            "6069450643a5afe60dc5f5b6c6f2eaf146bc1b57e4ab7fad40467ea13dc13ec7",
        ),
        (
            ["geom", "third-point", "--x", _DEGREE3,
             "--y", json.dumps({"modulus": ["36", "-15", "15", "1"], "coords": [["1"], ["-1"], ["0"], ["0"]]})],
            "b0d3ede9a940a01adaae6b737c70dbe581289530f4d4d6a0daf9212250f13a61",
        ),
        (
            ["geom", "tangent-residual", "--surface", _WEIERSTRASS,
             "--axis", '[["0","1","0","0"],["0","0","1","0"]]', "--point", '["-1","0","1","0"]'],
            "34e183f52cae27a4193f6e49ee61fee757ed6fc5e8c6a27cac0692e66a2215e8",
        ),
        (
            ["geom", "tangent-residual", "--axis", _AXIS, "--point", _DEGREE3],
            "ad62b9ef4d1bba385aaea308ae37a2e6a0b8c02abfafdc757da71923e42d1c6e",
        ),
        (
            ["geom", "delta", "--line", _SPLIT_LINE],
            "22fa6ab3364d6b3a497098beb5b29fcf04191e95a66135084f343297b7feabaf",
        ),
        (
            ["geom", "delta", "--surface", _CUBE_ROOT_2, "--line", '[["0","1","0","0"],["1","0","0","0"]]'],
            "21d43796f49114e772770b53451638325c1ef6008852bd8591f14d68a2284937",
        ),
        (
            ["geom", "delta", "--line", '[["1","2","0","3"],["0","1","1","-1"]]'],
            "cf68546e8dfcecd76b93bcb49ad80079ed8ec5d277fc8c73ac168966ec4e5266",
        ),
        (
            ["geom", "delta", "--surface", _WEIERSTRASS, "--line", '[["-1","0","1","0"],["0","1","0","0"]]'],
            "29566d75b8473da13dc85c9ae0ce118667da9e5865241d6ae632097963d0d2fc",
        ),
        (
            ["geom", "psi", "--axis", _AXIS, "--line", _SPLIT_LINE],
            "b17b775d076754688239d8f2be946ae7137984599ac8125a66329e0e64f6e612",
        ),
        (
            ["points", "saturate", "--surface", json.dumps(CubicForm.diagonal(1, 1, 2, -4).to_json()),
             "--seeds", "[[-1,1,0,0],[-1,-1,1,0],[1,1,1,1]]", "--rounds", "2"],
            "f620f5470435a0089561f7076af8df42559e4be6916cb12c405e535042a22c14",
        ),
    ],
    ids=[
        "third-point", "third-point-degree3", "tangent-residual", "tangent-residual-degree3",
        "delta-split", "delta-irreducible", "delta-generic", "delta-non-reduced",
        "psi-forced-split", "saturate-rounds-2",
    ],
)
def test_construction_outputs_pinned(capsys, argv, sha256):
    # Pinned from the canonical outputs of the per-construction restriction code;
    # the surface defaults to the Fermat cubic.  psi-forced-split splits its algebra once.
    if "--surface" not in argv:
        argv = [*argv[:2], "--surface", json.dumps(CubicForm.fermat().to_json()), *argv[2:]]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


#: An axis through the Fermat point (1, -1, 0, 0), which is the component at the
#: named root of each point below; the other component, (0, 1, -1, 0), is off it.
_ON_AXIS = '[["1","-1","0","0"],["0","0","0","1"]]'


@pytest.mark.parametrize(
    "argv, kind, message",
    [
        (
            ["third-point", "--x", json.dumps({"modulus": ["1/4", "-1", 1], "coords": [["1"], ["-1"], [], []]}),
             "--y", '["0","1","-1","0"]'],
            "ValueError", "modulus t^2 - t + 1/4 is not squarefree",
        ),
        (  # over t^2 - 1, on the axis at t = -1
            ["tangent-residual", "--axis", _ON_AXIS, "--point", json.dumps(
                {"modulus": ["-1", "0", "1"], "coords": [["1/2", "-1/2"], ["0", "1"], ["-1/2", "-1/2"], []]})],
            "ZeroDivisorFound", "zero divisor over Q[t]/(t^2 - 1): factor t + 1",
        ),
        (  # over t^2 - t, on the axis at t = 0
            ["tangent-residual", "--axis", _ON_AXIS, "--point", json.dumps(
                {"modulus": ["0", "-1", "1"], "coords": [["1", "-1"], ["-1", "2"], ["0", "-1"], []]})],
            "ZeroDivisorFound", "zero divisor over Q[t]/(t^2 - t): factor t",
        ),
        (  # over (t - 1/2)(t + 1), on the axis at t = 1/2
            ["tangent-residual", "--axis", _ON_AXIS, "--point", json.dumps(
                {"modulus": ["-1/2", "1/2", "1"],
                 "coords": [["2/3", "2/3"], ["-1/3", "-4/3"], ["-1/3", "2/3"], []]})],
            "ZeroDivisorFound", "zero divisor over Q[t]/(t^2 + 1/2*t - 1/2): factor t - 1/2",
        ),
        (  # over t^2 - t, no coordinate is a unit: (1, -1, 0, 0) at t = 0, (0, 0, 1, -1) at t = 1
            ["tangent-residual", "--axis", '[["1","1","1","1"],["1","2","4","8"]]', "--point", json.dumps(
                {"modulus": ["0", "-1", "1"], "coords": [["1", "-1"], ["-1", "1"], ["0", "1"], ["0", "-1"]]})],
            "ZeroDivisorFound", "zero divisor over Q[t]/(t^2 - t): factor t",
        ),
    ],
    ids=["not-squarefree", "t^2-1", "t^2-t", "fractional-factor", "no-unit-coordinate"],
)
def test_error_texts_that_print_a_polynomial(capsys, fermat_path, argv, kind, message):
    code, out = run_cli(capsys, "geom", argv[0], "--surface", fermat_path, *argv[1:])
    assert code == 1
    assert out == json.dumps({"error": {"kind": kind, "message": message}}, sort_keys=True, indent=2) + "\n"


#: Placeholder for the path of the Fermat surface file in parametrized argv lists.
FERMAT = object()
X, Y = '["1","-1","0","0"]', '["0","1","-1","0"]'
LINE = f"[{X},{Y}]"
#: A point of degree 2, (sqrt 2 : 1 : 0 : 0), which no line may have as a basepoint.
QUADRATIC = json.dumps({"modulus": ["-2", "0", "1"], "coords": [["0", "1"], ["1"], [], []]})


def _fermat_with(exp=None, coeff=None) -> str:
    """Fermat surface JSON with its first monomial's exponent or coefficient replaced."""
    doc = CubicForm.fermat().to_json()
    first = doc["monomials"][0]
    first["exp"] = first["exp"] if exp is None else exp
    first["coeff"] = first["coeff"] if coeff is None else coeff
    return json.dumps(doc)


#: The value that makes `_verify_edited_certificate` delete the entry.
MISSING = object()


def _verify_edited_certificate(capsys, tmp_path, where, value):
    """`descent verify` on the dP3 certificate for degree 19 with the entry at
    the key path `where` set to `value`, or deleted for MISSING: (exit code, stdout)."""
    cert_path = tmp_path / "cert.json"
    argv = ["descent", "certify", "--dS", "3", "--degree", "19", "--out", str(cert_path)]
    assert run_cli(capsys, *argv)[0] == 0
    cert = json.loads(cert_path.read_text())
    assert cert["moves"][0]["kind"] == "AddBasis"
    parent = cert
    for key in where[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    cert_path.write_text(json.dumps(cert))
    return run_cli(capsys, "descent", "verify", str(cert_path))


class TestHostileInput:
    def test_long_inline_json_is_parsed_not_opened(self, capsys, fermat_path):
        # longer than a file name may be, so it must never reach the file system
        inline = json.dumps(CubicForm.fermat().to_json(), indent=8)
        assert len(inline) > 255
        argv = ["geom", "third-point", "--x", '["1","-1","0","0"]', "--y", '["0","1","-1","0"]']
        code, out = run_cli(capsys, *argv, "--surface", inline)
        assert code == 0
        assert run_cli(capsys, *argv, "--surface", fermat_path) == (0, out)

    def test_long_argument_that_is_neither_file_nor_json(self, capsys):
        code, out = run_cli(capsys, "descent", "verify", "x" * 400)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "JSONDecodeError"

    def test_verify_rejects_a_non_object_certificate(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        code, out = run_cli(capsys, "descent", "verify", str(path))
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "ValueError"
        assert "JSON object" in error["message"]

    @pytest.mark.parametrize(
        "where, value",
        [
            (("moves", 0, "combo"), ["h", 3]),
            (("moves", 0), 1),
            (("moves",), "AddBasis"),
            (("initial",), [1, 19]),
            (("initial", "coeffs"), [["h", 1]]),
            (("initial", "unknown_degree"), "19"),
            (("initial", "sign"), True),
            (("initial", "coeffs"), {"h": "1"}),
            (("final", "unknown_degree"), 17.0),
            (("moves", 1, "l"), "3"),
            (("moves", 1, "l"), True),
            (("moves", 0, "gamma"), 1.5),
            (("surface", "basis"), 5),
            (("surface", "basis"), [4]),
            (("surface", "dS"), True),
            (("moves", 2, "target"), {"h": 1.0}),
            (("moves", 2, "target"), {"h": True}),
            (("moves", 2, "target"), {"h": "1"}),
            (("moves", 0, "combo"), {"h": 3.0}),
        ],
        ids=[
            "combo-list", "move-not-object", "moves-string", "initial-list", "coeffs-list",
            "degree-string", "sign-bool", "coeff-string", "final-degree-float", "l-string",
            "l-bool", "gamma-float", "basis-scalar", "basis-not-names", "dS-bool",
            "target-float", "target-bool", "target-string", "combo-float",
        ],
    )
    def test_verify_rejects_malformed_certificate_shapes(self, capsys, tmp_path, where, value):
        code, out = _verify_edited_certificate(capsys, tmp_path, where, value)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "ValueError"

    @pytest.mark.parametrize(
        "where, value, message",
        [
            (("initial", "coeffs"), {"zz": 1}, "unknown basis cycle 'zz'"),
            (("final", "coeffs"), {"h": 1, "zz": -2}, "unknown basis cycle 'zz'"),
            (("abstract_entry",), "yes", "abstract_entry must be a boolean, not str"),
            (("abstract_entry",), 1, "abstract_entry must be a boolean, not int"),
            (("moves", 1, "kind"), 5, "kind must be a string, not int"),
            (("moves", 1, "kind"), ["Complement"], "kind must be a string, not list"),
            (("moves",), MISSING, "certificate is missing the field 'moves'"),
            (("surface",), MISSING, "certificate is missing the field 'surface'"),
            (("final",), MISSING, "certificate is missing the field 'final'"),
            (("initial", "unknown_degree"), MISSING, "cycle state is missing the field 'unknown_degree'"),
            (("final", "sign"), MISSING, "cycle state is missing the field 'sign'"),
            (("surface", "dS"), MISSING, "surface is missing the field 'dS'"),
            (("moves", 1, "kind"), MISSING, "move is missing the field 'kind'"),
        ],
        ids=["initial-unknown-cycle", "final-unknown-cycle", "abstract-entry-string", "abstract-entry-int",
             "kind-int", "kind-list", "no-moves", "no-surface", "no-final", "no-unknown-degree", "no-sign",
             "no-dS", "no-kind"],
    )
    def test_verify_error_documents_for_the_loader_contract(self, capsys, tmp_path, where, value, message):
        code, out = _verify_edited_certificate(capsys, tmp_path, where, value)
        assert code == 1
        assert out == json.dumps({"error": {"kind": "ValueError", "message": message}}, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["third-point", "--surface", FERMAT, "--x", X, "--y", "5"],
            ["delta", "--surface", FERMAT, "--line", "[[1,0,0,0]]"],
            ["delta", "--surface", '{"monomials":5}', "--line", LINE],
            ["delta", "--surface", "[1]", "--line", LINE],
            ["delta", "--surface", '{"monomials":[[3,0,0,0]]}', "--line", LINE],
            ["delta", "--surface", _fermat_with(exp=[1.0, 1, 1, 0]), "--line", LINE],
            ["delta", "--surface", _fermat_with(coeff=0.1), "--line", LINE],
            ["delta", "--surface", _fermat_with(coeff=True), "--line", LINE],
            ["third-point", "--surface", FERMAT, "--x", "[1.5,-1,0,0]", "--y", X],
            ["third-point", "--surface", FERMAT, "--x", "[true,-1,0,0]", "--y", Y],
            ["third-point", "--surface", FERMAT, "--x", '["1/0","-1","0","0"]', "--y", Y],
            ["third-point", "--surface", FERMAT, "--x", '{"modulus":[0,1],"coords":5}', "--y", Y],
            ["delta", "--surface", FERMAT, "--line", f"[{QUADRATIC},{Y}]"],
            ["psi", "--surface", FERMAT, "--axis", f"[{X},{QUADRATIC}]", "--line", LINE],
            ["tangent-residual", "--surface", FERMAT, "--axis", f"[{QUADRATIC},{Y}]", "--point", X],
        ],
        ids=[
            "point-scalar", "line-one-point", "monomials-scalar", "surface-list",
            "monomial-list", "exponent-float", "coeff-float", "coeff-bool", "coord-float",
            "coord-bool", "coord-zero-denominator", "algebra-coords-scalar",
            "line-algebra-point", "psi-axis-algebra-point", "tangent-axis-algebra-point",
        ],
    )
    def test_geometry_loaders_reject_malformed_json(self, capsys, fermat_path, argv):
        argv = [fermat_path if a is FERMAT else a for a in argv]
        code = run(["geom", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"]["kind"] == "ValueError"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("degree", [4, 60, 10**4])
    def test_modulus_degree_is_bounded_before_any_work(self, capsys, fermat_path, degree):
        # points have degree at most 3; a long modulus is refused before its
        # coefficients are parsed or any gcd runs
        x = json.dumps({"modulus": ["1/3"] * degree + ["1"], "coords": [["1"], ["-1"], [], []]})
        start = time.perf_counter()
        code = run(["geom", "third-point", "--surface", fermat_path, "--x", x, "--y", Y])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1 and "Traceback" not in captured.err
        message = f"a modulus must have degree 1 to 3, got degree {degree}"
        assert json.loads(captured.out)["error"] == {"kind": "ValueError", "message": message}
        assert elapsed < 0.1
        with pytest.raises(ValueError, match=message):
            point_from_json({"modulus": [1.5] * (degree + 1), "coords": 5})

    @pytest.mark.parametrize("entries", [4, 2000, 4000])
    def test_coordinate_length_is_bounded_before_any_work(self, capsys, fermat_path, entries):
        # a coordinate over Q[t]/(f) has at most deg f entries; a longer one is
        # refused before its entries are parsed or reduced modulo f
        coords = [["1/7"] * entries, ["-1"], [], []]
        x = json.dumps({"modulus": ["1/2", "1/3", "1/5", "1"], "coords": coords})
        start = time.perf_counter()
        code = run(["geom", "third-point", "--surface", fermat_path, "--x", x, "--y", Y])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1 and "Traceback" not in captured.err
        message = "a coordinate over a degree-3 modulus has at most 3 entries"
        assert json.loads(captured.out)["error"] == {"kind": "ValueError", "message": message}
        assert elapsed < 0.1
        with pytest.raises(ValueError, match=message):
            point_from_json({"modulus": [1, 0, 0, 1], "coords": [[1], [1.5] * entries, [], []]})

    def test_saturate_rejects_seeds_that_are_not_a_list(self, capsys, fermat_path):
        argv = ["points", "saturate", "--surface", fermat_path, "--seeds", "5", "--rounds", "1"]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"]["kind"] == "ValueError"
        assert "Traceback" not in captured.err

    def test_out_to_a_missing_directory_is_structured(self, capsys, tmp_path):
        out = tmp_path / "missing" / "report.json"
        code = run(["chow", "report", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and "Traceback" not in captured.err
        assert json.loads(captured.out)["error"]["kind"] == "FileNotFoundError"
        assert not out.parent.exists()

    def test_unknown_goal_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["descent", "certify", "--dS", "3", "--degree", "10", "--goal", "nope"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--goal" in captured.err

    def test_suite_ceiling_below_one_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["descent", "suite", "--dS", "3", "--ceiling", "0"])
        assert info.value.code == 2
        assert "--ceiling" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--threshold", "-5"], ["--threshold", "0"], ["--threshold", "18", "--ceiling", "0"]],
        ids=["threshold-negative", "threshold-zero", "ceiling-zero"],
    )
    def test_threshold_flags_below_one_are_usage_errors(self, capsys, flags):
        with pytest.raises(SystemExit) as info:
            run(["descent", "threshold", "--dS", "3", *flags])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flags[-2]}: must be >= 1" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["points", "saturate", "--rounds", "-1"],
            ["points", "saturate", "--max-points", "-4"],
            ["chow", "pencil", "--samples", "-1"],
        ],
        ids=["rounds", "max-points", "samples"],
    )
    def test_negative_counts_are_usage_errors(self, capsys, fermat_path, argv):
        if argv[0] == "points":
            argv = argv + ["--surface", fermat_path, "--seeds", '[["1","-1","0","0"]]']
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{argv[2]}: must be >= 0, got {argv[3]}" in captured.err

    @pytest.mark.parametrize("command", [["points", "enum"], ["geom", "check-smooth"]], ids=["enum", "check-smooth"])
    @pytest.mark.parametrize("height", ["0", "-3"])
    def test_height_below_one_is_a_usage_error(self, capsys, fermat_path, command, height):
        with pytest.raises(SystemExit) as info:
            run([*command, "--surface", fermat_path, "--height", height])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--height: must be >= 1, got {height}" in captured.err

    @pytest.mark.parametrize("command", [["points", "enum"], ["geom", "check-smooth"]], ids=["enum", "check-smooth"])
    def test_height_above_the_cap_is_structured(self, capsys, fermat_path, command):
        # refused before any table is built
        start = time.perf_counter()
        code, out = run_cli(capsys, *command, "--surface", fermat_path, "--height", "257")
        assert time.perf_counter() - start < 0.1
        assert code == 1
        message = "height bound must lie in 1..256, got 257"
        assert json.loads(out) == {"error": {"kind": "ValueError", "message": message}}

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["points", "saturate", "--rounds", "0"], "count"),
            (["points", "saturate", "--max-points", "0"], "count"),
            (["chow", "pencil", "--samples", "0"], "samples"),
        ],
        ids=["rounds", "max-points", "samples"],
    )
    def test_zero_counts_keep_their_meaning(self, capsys, fermat_path, argv, key):
        if argv[0] == "points":  # no rounds or no room: the seeds come back as they are
            argv = argv + ["--surface", fermat_path, "--seeds", '[["1","-1","0","0"]]']
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)[key] == (1 if key == "count" else 0)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dS", "3", "--threshold", "5", "--ceiling", "3"], "the range 5..3 holds no degree"),
            (["--dS", "2", "--threshold", "13", "--ceiling", "13", "--even-only"],
             "the range 13..13 holds no even degree"),
        ],
        ids=["above-ceiling", "no-even-degree"],
    )
    def test_empty_threshold_range_is_structured(self, capsys, flags, message):
        code, out = run_cli(capsys, "descent", "threshold", *flags)
        assert code == 1
        assert json.loads(out) == {"error": {"kind": "ValueError", "message": message}}

    def test_directory_argument_names_its_path(self, capsys, tmp_path):
        for argv in (
            ["geom", "delta", "--surface", str(tmp_path), "--line", LINE],
            ["descent", "verify", str(tmp_path)],
        ):
            code = run(argv)
            captured = capsys.readouterr()
            assert code == 1 and "Traceback" not in captured.err
            error = json.loads(captured.out)["error"]
            assert error["kind"] == "IsADirectoryError"
            assert str(tmp_path) in error["message"]
