"""The seeded corpus generator: determinism, schema and seed-independent sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import corpus  # noqa: E402
from hindpo.dataforge import load_articles  # noqa: E402
from hindpo.textmetrics import tokenize  # noqa: E402

SMALL = {"n_articles": 30, "vocab_size": 120, "expl_len": (6, 11)}


def write(tmp_path, seed, name):
    return corpus.write_corpus(corpus.scaled_corpus(seed=seed, **SMALL), tmp_path / name)


def test_same_seed_gives_byte_identical_files(tmp_path):
    assert write(tmp_path, 7, "a.jsonl").read_bytes() == write(tmp_path, 7, "b.jsonl").read_bytes()


def test_other_seed_gives_other_file(tmp_path):
    assert write(tmp_path, 7, "a.jsonl").read_bytes() != write(tmp_path, 8, "b.jsonl").read_bytes()


def test_load_articles_accepts_the_file(tmp_path):
    records = load_articles(write(tmp_path, 3, "c.jsonl"))
    assert len(records) == SMALL["n_articles"]
    assert {r.label for r in records} == {"fake", "real"}
    assert all(r.actuality_candidates is not None for r in records)


def test_every_vocabulary_word_occurs_and_nothing_else():
    tokens = set()
    for record in corpus.scaled_corpus(seed=5, **SMALL):
        texts = [record["news_text"], record["ground_truth_explanation"]]
        texts += [c["text"] for c in record["candidates"]]
        for text in texts:
            tokens.update(tokenize(text))
    assert tokens == {corpus.word(i) for i in range(SMALL["vocab_size"])}


def test_text_lengths_do_not_depend_on_the_seed():
    def lengths(seed):
        return [
            (len(r["ground_truth_explanation"].split()), [len(c["text"].split()) for c in r["candidates"]])
            for r in corpus.scaled_corpus(seed=seed, **SMALL)
        ]

    assert lengths(1) == lengths(2)
