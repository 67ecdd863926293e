"""Fuzzing the certificate loader and verifier through the CLI.

Certificates found here, an EntryRR certificate among them, are mutated and go
to `descent verify` through `cli.run`: a field gets a new value, loses a key or
an entry, or has its type swapped.  Every input must end in exit 0, a
structured refusal (exit 1: one `{"error": {"kind", "message"}}` document, never
of kind `KeyError`) or a usage error (exit 2), never a traceback.  Integers stay within -10^4..10^4: the
verifier does not bound a move's parameter l yet, and h^0 at a huge l takes
time without end.
"""

import contextlib
import copy
import io
import json

import pytest

from zerocycles.cli import run
from zerocycles.descent import GOALS, DelPezzo, entry_certificate, find_certificate

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

CERTIFICATES = [
    find_certificate(DelPezzo(3), 30, GOALS["cubic-pos"]).to_json(),
    find_certificate(DelPezzo(3, with_x4=True), 41, GOALS["cubic-x4-pos"]).to_json(),
    find_certificate(DelPezzo(2), 23, GOALS["dp2"]).to_json(),
    find_certificate(DelPezzo(1), 17, GOALS["dp1"]).to_json(),
    entry_certificate(DelPezzo(3), 25, 2, GOALS["cubic-pos"]).to_json(),
]

numbers = st.integers(-(10**4), 10**4)
#: Values of every JSON type, and the names that the loader knows.
values = st.one_of(
    numbers, st.sampled_from([0, 1, -1, 2, 1.0, 0.5, True, False, None, "", "h", "x4", "Complement", "EntryRR",
                              "VBSubtract", "AddBasis", [], {}, [1], {"h": 1}, {"h": "1"}, ["h", 1]]),
)


def _paths(node, path=()):
    """Every path into the JSON tree, the root's children first."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutants(draw):
    cert = copy.deepcopy(draw(st.sampled_from(CERTIFICATES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(cert))
        path = draw(st.sampled_from(paths))
        parent = cert
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["change", "change", "delete", "swap"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "swap":  # the same content under another JSON type
            old = parent[path[-1]]
            parent[path[-1]] = draw(st.sampled_from([str(old), [old], {"v": old}, float(old) if type(old) is int else 1.0]))
        else:  # a copy: the strategy's lists and dicts are shared by every example
            parent[path[-1]] = copy.deepcopy(draw(values))
    return cert


@hypothesis.settings(max_examples=250, deadline=None, suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(mutants())
def test_verify_never_crashes_on_mutated_certificates(cert):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(["descent", "verify", json.dumps(cert)])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        payload = json.loads(out.getvalue())
        assert list(payload) == ["error"] and sorted(payload["error"]) == ["kind", "message"]
        assert payload["error"]["kind"] != "KeyError"  # a missing field is named, not a bare key
    if code == 0:
        assert json.loads(out.getvalue())["ok"] in (True, False)


def test_unmutated_certificates_verify():
    for cert in CERTIFICATES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["descent", "verify", json.dumps(cert)]) == 0
        assert json.loads(out.getvalue())["ok"] is True
