"""Every ```python block of README.md runs to exit 0.

Each block runs in a fresh interpreter with ``PYTHONPATH=src``, from the
repository root, so an example that no longer matches the API fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_blocks_are_found():
    assert len(BLOCKS) >= 2 and "check_jacobi" in BLOCKS[0]


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{n}" for n in range(1, len(BLOCKS) + 1)])
def test_readme_block_exits_0(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
