"""Every fenced ``python`` block of README.md runs to completion against the
current API, each on its own in an empty directory, and the record keys
README lists under "File formats" are the record dataclasses' fields and
the checkpoint header's keys."""

import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from hindpo.dataforge import ArticleRecord, Candidate, PreferencePair
from hindpo.policy import BigramPolicy, Vocabulary

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


def _format_entry(name: str) -> str:
    """The README "File formats" bullet whose bold title is ``name``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## File formats") :]
    return re.search(r"^- \*\*%s\*\*(.*?)(?=^- |^#)" % re.escape(name), section, re.M | re.S).group(1)


def _quoted_keys(text: str) -> list[str]:
    # A quoted word after ": " or "|" is a value ("fake"|"real"), not a key.
    return re.findall(r'(?<!: )(?<!\|)"(\w+)"', text)


def test_file_formats_list_the_article_fields_in_order():
    articles = _format_entry("Articles")
    candidate = re.search(r"\[\{(.*?)\}", articles).group(1)
    assert _quoted_keys(candidate) == [f.name for f in fields(Candidate)]
    assert _quoted_keys(articles.replace(candidate, "")) == [f.name for f in fields(ArticleRecord)]
    optional = [f.name for f in fields(ArticleRecord) if f.default is not MISSING]
    assert re.findall(r'"(\w+)"\?', articles) == optional


def test_file_formats_list_the_pair_fields_in_order():
    keys = re.search(r"\{([^}]*)\}", _format_entry("Stage / val / test files")).group(1)
    assert [key.strip() for key in keys.split(",")] == [f.name for f in fields(PreferencePair)]


def test_file_formats_list_the_checkpoint_header_keys_in_order(tmp_path):
    header = re.search(r"\{(.*?)\}", _format_entry("Policy checkpoint"), re.S).group(1)
    path = BigramPolicy.new(Vocabulary.from_tokens(["a"])).save(tmp_path / "ckpt.json")
    assert _quoted_keys(header) == list(json.loads(path.read_text(encoding="utf-8")))
