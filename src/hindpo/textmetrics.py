"""Tokenization and text-similarity scoring.

All scorers operate on token sequences produced by :func:`tokenize`, which
is Unicode-aware: Devanagari grapheme clusters survive intact and only
Latin letters are case-folded. It folds a whole string with one
``str.translate`` through a table that learns each code point's folding
on first sight and holds at most 4096 of them; the per-character loop it
replaced is kept as ``tests/oracles.py:tokenize_loop``. Lexical metrics
(ROUGE-N, ROUGE-L, METEOR) are exact-match based. ROUGE-L's longest
common subsequence is the bit-parallel algorithm of Allison & Dix (1986)
and Hyyrö (2004), which the tests check against the row-rolling dynamic
program (``tests/oracles.py:lcs_dp``) and against brute-force
enumeration.
A semantic scorer is any function ``(cand, ref) -> float`` giving the
similarity of two raw strings in [0, 1]; an exception it raises
propagates, so a failing provider never reads as a score of 0. The
built-in one, ``CharTrigramCosine().score``, is a character trigram
cosine, so the whole pipeline runs without external services. It codes
each trigram as one int64 and counts a string's trigrams with
``np.unique``; its scores equal the ``Counter`` version kept as
``tests/oracles.py:trigram_cosine`` bit for bit.

The weighted blend used to rank candidate explanations is
``(semantic + 3 * (rouge_l + meteor)) / 4``; see :func:`final_score`.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from math import sqrt

import numpy as np

TokenSequence = list[str]


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
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
    cand_grams = _ngrams(cand, n)
    ref_grams = _ngrams(ref, n)
    total_cand = sum(cand_grams.values())
    total_ref = sum(ref_grams.values())
    if total_cand == 0 or total_ref == 0:
        return PrfScore(0.0, 0.0, 0.0)
    overlap = sum((cand_grams & ref_grams).values())
    precision = overlap / total_cand
    recall = overlap / total_ref
    return PrfScore(precision, recall, _f1(precision, recall))


def _lcs_length(a: TokenSequence, b: TokenSequence) -> int:
    # Bit-parallel LCS (Allison & Dix 1986; Hyyrö 2004), one big-int step
    # per token of a: bit j of v is 0 where the LCS of the prefix of a and
    # b[: j + 1] grows at j, so the LCS is the count of zero bits. Equal to
    # the O(len(a) * len(b)) dynamic program kept as tests/oracles.py lcs_dp.
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(cand: TokenSequence, ref: TokenSequence) -> PrfScore:
    """Longest-common-subsequence score with F1 weighting."""
    lcs = _lcs_length(cand, ref)
    precision = lcs / len(cand) if cand else 0.0
    recall = lcs / len(ref) if ref else 0.0
    return PrfScore(precision, recall, _f1(precision, recall))


def _greedy_alignment(cand: TokenSequence, ref: TokenSequence) -> list[tuple[int, int]]:
    # Each token matches at most once; candidate positions scan left to
    # right and claim the first unused identical reference token, i.e. the
    # top of that token's stack of free positions (smallest on top).
    free: dict[str, list[int]] = {}
    for rj in range(len(ref) - 1, -1, -1):
        free.setdefault(ref[rj], []).append(rj)
    return [(ci, free[token].pop()) for ci, token in enumerate(cand) if free.get(token)]


def meteor(cand: TokenSequence, ref: TokenSequence) -> float:
    """Exact-match METEOR score.

    Unigram matches come from a greedy left-to-right alignment. With m
    matches, P = m/|cand|, R = m/|ref|, Fmean = 10PR/(R + 9P). The
    fragmentation penalty is 0.5 * (chunks/m)^3, where a chunk is a
    maximal run of matches contiguous in both sequences. No stemming or
    synonym matching is applied.
    """
    if not cand or not ref:
        return 0.0
    pairs = _greedy_alignment(cand, ref)
    m = len(pairs)
    if m == 0:
        return 0.0
    precision = m / len(cand)
    recall = m / len(ref)
    fmean = 10 * precision * recall / (recall + 9 * precision)
    chunks = 1
    for (prev_c, prev_r), (cur_c, cur_r) in zip(pairs, pairs[1:]):
        if cur_c != prev_c + 1 or cur_r != prev_r + 1:
            chunks += 1
    penalty = 0.5 * (chunks / m) ** 3
    return fmean * (1 - penalty)


def _trigram_profile(nfc: str) -> tuple[np.ndarray, np.ndarray, float]:
    # (sorted distinct trigram keys, their counts, root of the squared
    # counts' sum). A code point fits in 21 bits, so a trigram packs into
    # one int64 key c0 << 42 | c1 << 21 | c2; a lone surrogate is a code
    # point like any other. Every sum is an exact integer.
    codes = np.frombuffer(nfc.encode("utf-32-le", "surrogatepass"), dtype=np.uint32).astype(np.int64)
    keys, counts = np.unique(codes[:-2] << 42 | codes[1:-1] << 21 | codes[2:], return_counts=True)
    return keys, counts, sqrt(int(counts @ counts))


class CharTrigramCosine:
    """Cosine similarity over character 3-gram frequency vectors.

    Deterministic stand-in for embedding-based semantic scorers. Identical
    non-empty strings score exactly 1.0; strings sharing no trigram score
    0.0. Only ordering and identity properties should be relied upon, not
    absolute values. A string's profile is integer-coded: the sorted
    distinct trigrams of its NFC form, each packed from three 21-bit code
    points into one int64 key, with their counts. The dot product gathers
    the reference's counts at the candidate's keys by binary search; every
    sum is an exact integer, so a score equals the ``Counter``-of-strings
    cosine kept as ``tests/oracles.py:trigram_cosine`` bit for bit. An
    instance keeps the profile of the last reference it saw, so the
    candidates of one article share one reference profile.
    """

    def __init__(self) -> None:
        # (raw reference, its NFC form, its trigram profile)
        self._ref: tuple[str, str, tuple[np.ndarray, np.ndarray, float]] | None = None

    def _reference(self, ref: str) -> tuple[str, str, tuple[np.ndarray, np.ndarray, float]]:
        cached = self._ref
        if cached is None or cached[0] != ref:
            nfc = unicodedata.normalize("NFC", ref)
            cached = (ref, nfc, _trigram_profile(nfc))
            self._ref = cached
        return cached

    def score(self, cand: str, ref: str) -> float:
        cand = unicodedata.normalize("NFC", cand)
        _, ref, (ref_keys, ref_counts, ref_norm) = self._reference(ref)
        if cand and cand == ref:
            return 1.0
        keys, counts, norm = _trigram_profile(cand)
        if not len(keys) or not len(ref_keys):
            return 0.0
        at = np.searchsorted(ref_keys, keys)
        at[at == len(ref_keys)] = 0
        shared = ref_keys[at] == keys
        dot = int(counts[shared] @ ref_counts[at[shared]])
        return min(dot / (norm * ref_norm), 1.0)


def final_score(semantic: float, rouge_l_f1: float, meteor_score: float) -> float:
    """Weighted blend ``(semantic + 3 * (rouge_l_f1 + meteor_score)) / 4``.

    The lexical metrics carry weight 3 because their typical range is much
    narrower than semantic similarity's; the result lives in [0, 1.75].
    Inputs outside [0, 1] raise ValueError.
    """
    for name, value in (
        ("semantic", semantic),
        ("rouge_l_f1", rouge_l_f1),
        ("meteor_score", meteor_score),
    ):
        if not 0.0 <= value <= 1.0:
            raise ValueError("%s must be in [0, 1], got %r" % (name, value))
    lexical = rouge_l_f1 + meteor_score
    # Summed rather than multiplied by 3: keeps (0.9, 0.3, 0.3) -> 0.675 exact.
    return (semantic + lexical + lexical + lexical) / 4.0
