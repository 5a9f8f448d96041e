"""`scripts/code_lines.py` counts every module of the package and the total."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_code_lines_counts_each_module_and_the_total():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py")],
                          capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(done.stdout)
    modules = report["modules"]
    assert {p.name for p in (ROOT / "src" / "swarmgrid").glob("*.py")} == modules.keys()
    assert all(0 < m["code"] < m["lines"] for m in modules.values())
    assert report["total"]["code"] == sum(m["code"] for m in modules.values())
