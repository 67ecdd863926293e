"""Postconditions are explicit checks, so they still run under `python -O`."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Skews the form's value at every non-rational point, so the line section's
# final on-surface check must fail while its rational restriction stays right.
SCRIPT = """
import contextlib, io, json, sys
from zerocycles import cli
from zerocycles.algebra import AlgElement
from zerocycles.geometry import CubicForm, InvariantViolated, Line, line_section

original = CubicForm.value_at

def skewed(self, coords):
    value = original(self, coords)
    return value + 1 if isinstance(value, AlgElement) and value.algebra.degree > 1 else value

CubicForm.value_at = skewed
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
