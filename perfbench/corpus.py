"""Seeded synthetic corpora for the benchmark workloads.

Writes UTF-8 JSONL in the article format ``hindpo.dataforge.load_articles``
reads. The seed decides only *which* words go where; every size that sets
the amount of work is a function of the article index alone:

- the vocabulary is a fixed list of ``vocab_size`` pseudo-words, and the
  news texts tile a seeded permutation of it, so every word occurs and the
  policy's vocabulary is exactly ``vocab_size + 2`` (with BOS/EOS);
- explanation and candidate lengths cycle through ``expl_len`` by index,
  so the LCS table sizes (|cand| * |ref|) do not depend on the seed.

That keeps two seeds' timings comparable while their inputs differ.
The generator uses only the standard library, so the same seed gives
byte-identical files whatever numpy version is installed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
MAX_VOCAB = len(_SYLLABLES) ** 2
MODEL_IDS = ("gen-alpha", "gen-beta", "gen-gamma")


def word(index: int) -> str:
    """The index-th pseudo-word; distinct for 0 <= index < MAX_VOCAB."""
    return _SYLLABLES[index % len(_SYLLABLES)] + _SYLLABLES[index // len(_SYLLABLES)]


def scaled_corpus(
    n_articles: int,
    vocab_size: int,
    expl_len: tuple[int, int],
    seed: int,
    news_len: int = 12,
) -> list[dict]:
    """Article records, each with a ground truth and three ranked-apart candidates.

    Candidates are a near copy (a tenth of the words replaced), a partial
    copy (first half kept) and an unrelated text, all as long as the
    ground truth, shuffled across the three model ids.
    """
    lo, hi = expl_len
    if not 0 < vocab_size <= MAX_VOCAB:
        raise ValueError("vocab_size must be in 1..%d, got %d" % (MAX_VOCAB, vocab_size))
    if not 2 <= lo <= hi:
        raise ValueError("expl_len must satisfy 2 <= lo <= hi, got %r" % (expl_len,))
    if n_articles * news_len < vocab_size:
        raise ValueError("n_articles * news_len must cover the vocabulary")
    rng = random.Random(seed)
    words = [word(i) for i in range(vocab_size)]
    tiling = words[:]
    rng.shuffle(tiling)

    def draw(count: int) -> list[str]:
        return [words[rng.randrange(vocab_size)] for _ in range(count)]

    records = []
    for i in range(n_articles):
        start = i * news_len
        news = [tiling[(start + j) % vocab_size] for j in range(news_len)]
        length = lo + i % (hi - lo + 1)
        truth = draw(length)
        near = truth[:]
        for pos in rng.sample(range(length), max(1, length // 10)):
            near[pos] = words[rng.randrange(vocab_size)]
        partial = truth[: length // 2] + draw(length - length // 2)
        unrelated = draw(length)
        quality_actuality = [
            round(rng.uniform(0.55, 0.95), 2),
            round(rng.uniform(0.30, 0.70), 2),
            round(rng.uniform(0.00, 0.40), 2),
        ]
        texts = [near, partial, unrelated]
        slots = [0, 1, 2]
        rng.shuffle(slots)
        records.append(
            {
                "id": "syn-%05d" % (i + 1),
                "label": "fake" if i % 2 == 0 else "real",
                "news_text": " ".join(news),
                "ground_truth_explanation": " ".join(truth),
                "candidates": [
                    {"model_id": MODEL_IDS[k], "text": " ".join(texts[slots[k]])} for k in range(3)
                ],
                "actuality_preferred": round(rng.uniform(0.85, 1.0), 2),
                "actuality_candidates": [quality_actuality[slots[k]] for k in range(3)],
            }
        )
    return records


def write_corpus(records: list[dict], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    return path
