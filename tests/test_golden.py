"""Golden corpus: the exact stdout and exit code of one CLI run per case.

Each case runs ``python -m lzero ARGS`` in a fresh interpreter, with every
``LZERO_*`` variable removed from the environment, and compares stdout
byte for byte with ``tests/golden/<case>.out``.  A refactor that changes
any of these bytes changes the program's output, so the corpus is
regenerated only after a deliberate output change, and the diff is
reviewed.  From the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

# case name -> (argv, exit code)
CASES = {
    "prop1": (["prop1", "--fmax", "20", "--pmax", "11"], 0),
    "prop1_csv": (["prop1", "--fmax", "20", "--pmax", "7", "--format", "csv"], 0),
    # starts the ladder at N = 1, so seven records carry a "precision
    # escalated" note, and two carry a question-2 probe
    "prop1_escalated": (["prop1", "--fmax", "21", "--pmax", "7", "--precision", "1"], 0),
    "lvalue_f5_p5": (["lvalue", "-f", "5", "--chi", "1", "-p", "5"], 0),
    "lvalue_f9_p3": (["lvalue", "-f", "9", "--chi", "1", "-p", "3"], 0),
    "hminus": (["hminus", "-p", "23"], 0),
    "hminus_not_prime": (["hminus", "-p", "9"], 2),
    # a safe prime: k = 106 and (Z/106)^* is cyclic, so every product of the
    # orbit norm is dense (phi = 52)
    "hminus_safe_prime": (["hminus", "-p", "107"], 0),
    "irregular": (["irregular", "--pmax", "150"], 0),
    "kummer": (["kummer", "--pmax", "40"], 0),
    "deligne_ribet": (["deligne-ribet", "--fmax", "40"], 0),
    "remark2": (["remark2", "-p", "3", "--rmax", "3"], 0),
    "star": (["star", "-p", "37"], 0),
    "congruence": (["congruence", "--fmax", "40", "-p", "7"], 0),
    # reaches the Euler-factor branch of the residue scan (1 - chi(l))
    "congruence_euler": (["congruence", "--fmax", "30", "-p", "3"], 0),
    "corollary1": (["corollary1", "-p", "5", "-q", "11"], 0),
}


def _run(argv, interpreter_flags=()):
    env = {k: v for k, v in os.environ.items() if not k.startswith("LZERO_")}
    return subprocess.run([sys.executable, *interpreter_flags, "-m", "lzero", *argv],
                          capture_output=True, env=env)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case):
    argv, code = CASES[case]
    out = _run(argv)
    assert out.returncode == code, out.stderr.decode()
    assert out.stdout == (GOLDEN / f"{case}.out").read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden_under_optimize(case):
    # python -O strips assert statements; the checks of proved facts must
    # still run, and the output must not change
    argv, code = CASES[case]
    out = _run(argv, ["-O"])
    assert out.returncode == code, out.stderr.decode()
    assert out.stdout == (GOLDEN / f"{case}.out").read_bytes()


def test_jobs_do_not_change_stdout():
    # --jobs splits the scan over worker processes; the bytes must not move
    argv, code = CASES["prop1"]
    out = _run([*argv, "--jobs", "2"])
    assert out.returncode == code, out.stderr.decode()
    assert out.stdout == (GOLDEN / "prop1.out").read_bytes()


def test_cache_never_changes_stdout(tmp_path):
    argv, code = CASES["deligne_ribet"]
    want = (GOLDEN / "deligne_ribet.out").read_bytes()
    jsonl = tmp_path / "b1chi.jsonl"

    def cached_run():
        out = _run([*argv, "--cache-dir", str(tmp_path)])
        assert out.returncode == code, out.stderr.decode()
        assert out.stdout == want
        return jsonl.stat().st_size

    full = cached_run()  # fills the empty cache
    assert cached_run() == full  # reads it back and appends nothing
    jsonl.write_bytes(jsonl.read_bytes()[:-10])  # cut the last entry short
    # the load drops the cut line and the lost entry is recomputed and
    # appended, so the file is whole again and later runs append nothing
    sizes = [cached_run() for _ in range(3)]
    assert sizes == [full] * 3


# stdout sha256 of lvalue at the largest value orders, whose output is too
# large for a golden file: f = 30011 (k = 30010 = 2 * 5 * 3001) and
# f = 32603 (k = 32602 = 2 * 16301), the costliest conductor under the limit
BIG_ORDER_PINS = {
    "30011": "cd82f3712bb63eb8d66bd27819532f504b9f5f4fe795a940093dcb7872232b33",
    "32603": "f0e6441030bee9f719d64f6d72daee1f00c3933409510c4b21f473846570ac21",
}


@pytest.mark.parametrize("f", sorted(BIG_ORDER_PINS))
def test_big_order_lvalue_is_pinned(f):
    out = _run(["lvalue", "-f", f, "--chi", "1"])
    assert out.returncode == 0, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == BIG_ORDER_PINS[f]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, (argv, code) in CASES.items():
        out = _run(argv)
        assert out.returncode == code, (case, out.stderr.decode())
        (GOLDEN / f"{case}.out").write_bytes(out.stdout)
