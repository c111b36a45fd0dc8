"""Every fenced ``python`` block of README.md runs to completion against the
current API, each on its own in an empty directory."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_blocks_found():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)), ids=lambda i: "block%d" % i)
def test_block_runs(index, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", BLOCKS[index]], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []
