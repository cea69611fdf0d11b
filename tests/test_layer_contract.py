"""The benchmark's traced sweep must stay well-formed on this tree.

perfbench/layers.py times the program by wrapping named functions and
caches; a target that was deleted or renamed reads "absent", which makes the
benchmark's result non-numeric.  This runs one small traced sweep so that
such a rename fails here first.
"""

import json
import math
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SMALL = ["--theorems", "rkksuk,rkk,rkkmod2,mystery,rkkmod2_multiple,central_pol,numerics",
         "--r", "2,3", "--primes", "7..31", "--x-random", "2", "--seed", "0"]


def test_traced_sweep_reports_every_layer_as_a_number(tmp_path):
    argv = [sys.executable, str(ROOT / "perfbench" / "sweep.py"), repr(time.perf_counter()),
            "trace", "--", *SMALL, "--format", "json", "--out", str(tmp_path / "report.json")]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0 and not result["crashed"]
    layers = result["layers"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(layers) == {m["name"] for m in spec} - {"trace.overhead_frac"}
    bad = {name: value for name, value in layers.items()
           if isinstance(value, bool) or not isinstance(value, (int, float))
           or not math.isfinite(value)}
    assert not bad
    assert layers["theorems.check_ms_p50"] > 0
