"""Checks of proved statements must still run under ``python -O``.

``-O`` strips every ``assert`` statement, so the package raises explicitly
instead: TheoremViolation (or a subclass) for a proved statement or an
internal invariant that fails.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lzero"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements_in_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}; raise TheoremViolation instead"


# An odd character's B_{1,chi} cannot vanish; force the sum to 0 and the
# check in l_value_at_zero must fire even though -O removed every assert.
_FORCED_ZERO_B1 = """
import sys
if __debug__:
    sys.exit(3)
import lzero.bernoulli as bernoulli
from lzero import CycloElt, DirichletChar, TheoremViolation
bernoulli._b1_sum = lambda chi: CycloElt.zero(chi.value_order)
try:
    bernoulli.l_value_at_zero(DirichletChar(5, (1,)))
except TheoremViolation as exc:
    print(exc)
    sys.exit(0)
sys.exit(4)
"""


def test_forced_false_theorem_check_raises_under_optimize():
    env = {k: v for k, v in os.environ.items() if not k.startswith("LZERO_")}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FORCED_ZERO_B1],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "B_{1,chi} of an odd character cannot vanish\n"
