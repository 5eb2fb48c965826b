"""Rewrite pins.json: the sha256 of each fixed command's report section.

    python3 perfbench/pin.py

Only the residue-lemmas and cover-search commands are fixed; the
classify-factor inputs come from the seed, so their reports are instead
checked for being identical from round to round.  Re-pin only when a
report is meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.chdir(HERE.parent)

import workloads  # noqa: E402
from eisdescent import cli  # noqa: E402


def main() -> int:
    Path(workloads.RUN_DIR).mkdir(exist_ok=True)
    pins = {}
    for name in ("residue-lemmas", "cover-search"):
        workload = workloads.WORKLOADS[name](0, {})
        pins[name] = {}
        for op in sorted(workload.ops, key=lambda op: op.name):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(op.argv)
            problems = op.check(code, out.getvalue())
            if problems:
                print(f"{op.name}: {problems}", file=sys.stderr)
                return 1
            pins[name][op.name] = workloads.section_sha(out.getvalue())
    (HERE / "pins.json").write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
