"""The golden and planner digests do not depend on string hashing.

Sets and dicts of strings iterate in an order that `PYTHONHASHSEED` picks
per process, so a route or a trace that followed such an order would match
its digest under one seed and not another. Each case runs the two digest
tests of `tests/test_golden.py` in a fresh interpreter under a fixed seed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGEST_TESTS = [
    "tests/test_golden.py::test_golden_digest_matches",
    "tests/test_golden.py::test_planner_digest_matches",
]


@pytest.mark.parametrize("hash_seed", ["1", "12345"])
def test_digests_match_under_a_fixed_hash_seed(hash_seed):
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + ([path] if path else [])),
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *DIGEST_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert f"{len(DIGEST_TESTS)} passed" in done.stdout
