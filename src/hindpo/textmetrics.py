"""Tokenization and text-similarity scoring.

All scorers operate on token sequences produced by :func:`tokenize`, which
is Unicode-aware: Devanagari grapheme clusters survive intact and only
Latin letters are case-folded. It folds a whole string with one
``str.translate`` through a table that learns each code point's folding on
first sight and holds at most 4096 of them; the per-character loop it
replaced is kept as ``tests/oracles.py:tokenize_loop``. Lexical metrics
(ROUGE-N, ROUGE-L, METEOR) are exact-match based. ROUGE-N is one formula
over two n-gram multisets, which ``rouge_n`` counts from tokens and
``evalharness.evaluate_configs`` counts once per text. ROUGE-L and METEOR come
from one walk of the candidate (:func:`rouge_l_and_meteor`;
:func:`rouge_l` and :func:`meteor` are its two halves) over one table per
reference, each token mapped to an int bitmask of its positions; a
one-entry ``functools.lru_cache``, keyed by the token tuple, keeps the
last reference's table, so the candidates of one reference share it. Each
candidate token reads its mask once for both: one step of the bit-parallel
longest common subsequence of Allison & Dix (1986) and Hyyrö (2004), which
the tests check against the row-rolling dynamic program
(``tests/oracles.py:lcs_dp``) and against brute-force enumeration, and
METEOR's alignment, which takes the token's lowest free position bit and
counts matches and chunks as it goes; the tests check those counts against
the per-token position stacks it replaced, kept as
``tests/oracles.py:stack_alignment``.

A semantic scorer is any function ``(candidates, reference) -> scores``
giving one similarity in [0, 1] per candidate raw string against the
reference raw string, so a scorer can batch an article's candidates.
:func:`semantic_scores` calls one and checks that it gave one real number
per candidate; an exception the scorer raises propagates, so a failing
provider never reads as a score of 0. It is the one place where no scorer
(None) means the built-in one, :func:`char_trigram_cosine`, a character
trigram cosine, so the whole pipeline runs without external services. It
counts the trigrams of the reference and its candidates in one
integer-coded table, its columns numbered by one sort of the trigram keys;
its scores equal the ``Counter`` version kept as
``tests/oracles.py:trigram_cosine`` bit for bit.

The weighted blend used to rank candidate explanations is
``(semantic + 3 * (rouge_l + meteor)) / 4``; see :func:`final_score`.
"""

from __future__ import annotations

import functools
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from math import sqrt
from typing import Callable, Sequence

import numpy as np

from .fileio import SCORE, check_value, kind_problem

TokenSequence = list[str]
# (candidate raw strings, reference raw string) -> one similarity per candidate.
SemanticScorer = Callable[[Sequence[str], str], Sequence[float]]


@dataclass(frozen=True)
class PrfScore:
    """Precision / recall / F1 triple, each in [0, 1]."""

    precision: float
    recall: float
    f1: float


def _fold(ch: str) -> str:
    # One NFC character as it appears in a token: a space for a separator
    # (whitespace or any punctuation class), lowercase for a Latin letter,
    # itself otherwise. A folded non-separator is never whitespace, so
    # str.split() cuts exactly at the separators.
    if ch.isspace() or unicodedata.category(ch).startswith("P"):
        return " "
    if "LATIN" in unicodedata.name(ch, ""):
        return ch.lower()
    return ch


# The translate table keeps at most this many folded code points (threads
# racing past the check may add one each); beyond it a character is folded
# on every lookup, so memory stays bounded.
_FOLD_LIMIT = 4096


class _FoldTable(dict):
    # str.translate looks each code point up here; the first lookup of a
    # code point folds it and, while the table has room, keeps the result.
    def __missing__(self, code: int) -> str:
        folded = _fold(chr(code))
        if len(self) < _FOLD_LIMIT:
            self[code] = folded
        return folded


_FOLD = _FoldTable()


def tokenize(text: str) -> TokenSequence:
    """Split text into normalized tokens.

    Applies canonical composition (NFC), splits on whitespace and any
    punctuation class (including the Devanagari danda), and lowercases
    Latin script. Combining marks stay attached to their base character,
    so Devanagari clusters are never broken apart. Pure and deterministic;
    empty input yields an empty sequence.
    """
    return unicodedata.normalize("NFC", text).translate(_FOLD).split()


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _ngrams(tokens: TokenSequence, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(cand: TokenSequence, ref: TokenSequence, n: int) -> PrfScore:
    """N-gram overlap score over multisets of n-grams."""
    check_value("n", "int", n, (">=", 1))
    return _gram_overlap(_ngrams(cand, n), _ngrams(ref, n))


def _gram_overlap(cand_grams: Counter, ref_grams: Counter) -> PrfScore:
    # ROUGE-N of two n-gram multisets; evaluate_configs passes counts it
    # built once per text.
    total_cand = sum(cand_grams.values())
    total_ref = sum(ref_grams.values())
    if total_cand == 0 or total_ref == 0:
        return PrfScore(0.0, 0.0, 0.0)
    overlap = sum((cand_grams & ref_grams).values())
    precision = overlap / total_cand
    recall = overlap / total_ref
    return PrfScore(precision, recall, _f1(precision, recall))


@functools.lru_cache(maxsize=1)
def _position_masks(ref: tuple[str, ...]) -> dict[str, int]:
    # Each token of ref mapped to the int whose bit j is set where ref[j]
    # is that token. Keyed by a tuple, so a list changed in place after a
    # call is never served a stale table.
    masks: dict[str, int] = {}
    for j, token in enumerate(ref):
        masks[token] = masks.get(token, 0) | (1 << j)
    return masks


def _walk(cand: TokenSequence, ref: TokenSequence) -> tuple[int, int, int]:
    # (LCS length, METEOR matches, METEOR chunks) of cand against ref from
    # one pass over cand, each token reading its position mask in ref once.
    # LCS: bit-parallel (Allison & Dix 1986; Hyyrö 2004), one big-int step
    # per token: bit j of v is 0 where the LCS of the prefix of cand and
    # ref[: j + 1] grows at j, so the LCS is the count of zero bits; equal
    # to the dynamic program kept as tests/oracles.py lcs_dp. Alignment:
    # each token claims the lowest of its positions still in free, as the
    # position stacks kept as tests/oracles.py stack_alignment do; a match
    # one position after the previous token's match continues its chunk.
    free = full = (1 << len(ref)) - 1
    v = full
    matches = chunks = previous = 0
    for mask in map(_position_masks(tuple(ref)).get, cand, repeat(0)):
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
            mask &= free
        if mask:
            low = mask & -mask
            free ^= low
            matches += 1
            chunks += low != previous << 1
            previous = low
        else:
            previous = 0
    return len(ref) - v.bit_count(), matches, chunks


def rouge_l_and_meteor(cand: TokenSequence, ref: TokenSequence) -> tuple[PrfScore, float]:
    """``(rouge_l(cand, ref), meteor(cand, ref))`` from one walk of ``cand``."""
    lcs, m, chunks = _walk(cand, ref)
    precision = lcs / len(cand) if cand else 0.0
    recall = lcs / len(ref) if ref else 0.0
    score = 0.0
    if m:
        m_precision = m / len(cand)
        m_recall = m / len(ref)
        fmean = 10 * m_precision * m_recall / (m_recall + 9 * m_precision)
        penalty = 0.5 * (chunks / m) ** 3
        score = fmean * (1 - penalty)
    return PrfScore(precision, recall, _f1(precision, recall)), score


def rouge_l(cand: TokenSequence, ref: TokenSequence) -> PrfScore:
    """Longest-common-subsequence score with F1 weighting."""
    return rouge_l_and_meteor(cand, ref)[0]


def meteor(cand: TokenSequence, ref: TokenSequence) -> float:
    """Exact-match METEOR score.

    Unigram matches come from a greedy left-to-right alignment. With m
    matches, P = m/|cand|, R = m/|ref|, Fmean = 10PR/(R + 9P). The
    fragmentation penalty is 0.5 * (chunks/m)^3, where a chunk is a
    maximal run of matches contiguous in both sequences. No stemming or
    synonym matching is applied.
    """
    return rouge_l_and_meteor(cand, ref)[1]


def semantic_scores(semantic: SemanticScorer | None, cands: Sequence[str], ref: str, where: str) -> list[float]:
    """``semantic(cands, ref)`` as floats, one per candidate, with
    :func:`char_trigram_cosine` when ``semantic`` is None. A result that is
    not one real number in [0, 1] per candidate (Python's or numpy's ints
    and floats, not a bool) raises ValueError naming ``where``; an
    exception the scorer raises propagates unchanged."""
    result = (char_trigram_cosine if semantic is None else semantic)(cands, ref)
    try:
        scores = list(result)
    except TypeError:
        scores = None
    # The range is checked before float(), so an int too large for a float is refused by name.
    if (
        scores is None
        or len(scores) != len(cands)
        or any(kind_problem("real", score) or not 0 <= score <= 1 for score in scores)
    ):
        raise ValueError(
            "semantic scorer gave %r for the %d candidate(s) of %s; expected one real number in [0, 1] per candidate"
            % (result, len(cands), where)
        )
    return [float(score) for score in scores]


def char_trigram_cosine(cands: Sequence[str], ref: str) -> list[float]:
    """Cosine similarity of each candidate to ``ref``, in order, over
    character 3-gram frequency vectors.

    Deterministic stand-in for embedding-based semantic scorers. Identical
    non-empty strings score exactly 1.0; strings sharing no trigram score
    0.0. Only ordering and identity properties should be relied upon, not
    absolute values. A reference and its candidates are profiled together:
    one UTF-32 encoding of their joined NFC forms, each trigram packed from
    three 21-bit code points into one int64 key (a lone surrogate is a code
    point like any other), the keys that lie inside one string numbered in
    ascending order by one ``np.argsort`` (a column starts where the sorted
    key changes, and a ``cumsum`` of those starts numbers it), and one
    (1 + n, d) table of counts, the reference's row first. Every dot
    product and squared norm is an exact integer, so a score equals the
    ``Counter``-of-strings cosine kept as ``tests/oracles.py:trigram_cosine``
    bit for bit.
    """
    texts = [unicodedata.normalize("NFC", text) for text in (ref, *cands)]
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype=np.uint32).astype(np.int64)
    owner = np.repeat(np.arange(len(texts)), list(map(len, texts)))
    inside = owner[:-2] == owner[2:]
    keys = (codes[:-2] << 42 | codes[1:-1] << 21 | codes[2:])[inside]
    order = np.argsort(keys)
    ranked = keys[order]
    starts = np.ones(len(ranked), dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    column = starts.cumsum() - 1
    width = int(column[-1]) + 1 if len(column) else 0
    counts = np.bincount(owner[:-2][inside][order] * width + column, minlength=len(texts) * width)
    table = counts.reshape(len(texts), width)
    dots = (table[1:] @ table[0]).tolist()
    ref_square, *squares = (table * table).sum(axis=1).tolist()
    ref_norm = sqrt(ref_square)
    out = []
    for cand, dot, square in zip(texts[1:], dots, squares):
        if cand and cand == texts[0]:
            out.append(1.0)
        elif not square or not ref_square:
            out.append(0.0)
        else:
            out.append(min(dot / (sqrt(square) * ref_norm), 1.0))
    return out


def final_score(semantic: float, rouge_l_f1: float, meteor_score: float) -> float:
    """Weighted blend ``(semantic + 3 * (rouge_l_f1 + meteor_score)) / 4``.

    The lexical metrics carry weight 3 because their typical range is much
    narrower than semantic similarity's; the result lives in [0, 1.75].
    An input that is not a number, or is outside [0, 1], NaN included,
    raises ValueError naming it.
    """
    try:  # an in-range number takes one comparison
        in_range = 0.0 <= semantic <= 1.0 and 0.0 <= rouge_l_f1 <= 1.0 and 0.0 <= meteor_score <= 1.0
    except TypeError:  # a value that does not compare with a float
        in_range = False
    if not in_range:
        check_value("semantic", "float", semantic, *SCORE)
        check_value("rouge_l_f1", "float", rouge_l_f1, *SCORE)
        check_value("meteor_score", "float", meteor_score, *SCORE)
    lexical = rouge_l_f1 + meteor_score
    # Summed rather than multiplied by 3: keeps (0.9, 0.3, 0.3) -> 0.675 exact.
    return (semantic + lexical + lexical + lexical) / 4.0
