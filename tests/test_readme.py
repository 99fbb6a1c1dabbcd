"""The README's Library snippet runs as written and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _library_snippet() -> str:
    library = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_readme_library_snippet_prints_its_commented_values():
    snippet = _library_snippet()
    comments = [line.split("#", 1)[1] for line in snippet.splitlines() if line.startswith("print(")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", snippet], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    printed = [float(line) for line in run.stdout.splitlines()]
    assert len(printed) == len(comments) == 3
    omega_max, supremum, newton = printed
    assert omega_max == float(re.match(r"\s*(\S+),", comments[0]).group(1))
    assert "the same value" in comments[1] and supremum == omega_max
    # BLAS kernels can move the last bits of Newton's iterates.
    assert newton == pytest.approx(float(comments[2]), rel=1e-12, abs=0)
