"""Every demo script runs to completion against the source tree.

Where `tests/data/<demo>.stdout` exists, the demo's output must match it
byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    golden = ROOT / "tests" / "data" / f"{script.stem}.stdout"
    if golden.exists():
        assert result.stdout == golden.read_text(encoding="ascii")
