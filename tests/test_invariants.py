"""Postconditions are explicit checks, so they still run under `python -O`."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Skews every value read back modulo f at a point of degree >= 2, the form's
# value among them, so the line section's final on-surface check must fail
# while its rational restriction stays right.
SCRIPT = """
import contextlib, io, json, sys
from zerocycles import cli, geometry
from zerocycles.geometry import CubicForm, InvariantViolated, Line, line_section

original = geometry._reader

def skewed(*args):
    read = original(*args)
    return lambda value: [c + (i == 0) for i, c in enumerate(read(value))]

geometry._reader = skewed
line = Line.rational([1, 2, 0, 0], [0, 0, 1, 3])
try:
    line_section(CubicForm.fermat(), line)
    raised = None
except InvariantViolated as exc:
    raised = exc.kind
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run(["geom", "delta", "--surface", json.dumps(CubicForm.fermat().to_json()),
                    "--line", json.dumps(line.to_json())])
print(json.dumps({"optimize": sys.flags.optimize, "raised": raised, "exit": code,
                  "cli": json.loads(out.getvalue())}))
"""


def test_postcondition_fails_loudly_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["optimize"] == 1
    assert result["raised"] == "InvariantViolated"
    assert result["exit"] == 1
    assert result["cli"]["error"]["kind"] == "InvariantViolated"
