"""Set-up probe: a fresh process that loads zinterp from this checkout,
builds what the first job needs, prints "ready" and exits.

run.py times one launch of this script from process start to the "ready"
line; that span is the benchmark's setup_s.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import zinterp  # noqa: E402

if Path(zinterp.__file__).resolve().parent != SRC / "zinterp":
    raise SystemExit(f"zinterp loaded from {zinterp.__file__}, not {SRC}")
zinterp.pell_interpretation()
zinterp.formula_library()
print("ready", flush=True)
