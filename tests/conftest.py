"""Let tests that start ``python -m lzero`` in a subprocess import this
checkout's ``src``; pytest's ``pythonpath`` setting reaches only itself."""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
