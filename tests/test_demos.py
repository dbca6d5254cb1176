"""The demos print exactly the stdout recorded in ``tests/golden``.

To re-record after an intended change: ``PYTHONPATH=src python
demos/<name>.py > tests/golden/<name>.out``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert ({p.stem for p in DEMOS}
            == {p.stem for p in (ROOT / "tests" / "golden").glob("*.out")})


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stderr
    golden = ROOT / "tests" / "golden" / f"{demo.stem}.out"
    assert run.stdout == golden.read_text(encoding="utf-8")
