"""python -m lzero delegates to the CLI's process entry point."""

from .cli import run

run()
