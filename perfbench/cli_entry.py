"""Run one qlrlab command through ``qlrlab.cli.main`` and time the import.

Usage: python3 perfbench/cli_entry.py <qlrlab command and flags>

The last line on standard error is ``perfbench-import-s <seconds>``, the
time the interpreter spent importing ``qlrlab.cli`` before the command ran.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
from qlrlab.cli import main  # noqa: E402

import_s = time.perf_counter() - start

try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
finally:
    print(f"perfbench-import-s {import_s!r}", file=sys.stderr)
sys.exit(code)
