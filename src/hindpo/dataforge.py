"""Preference-dataset construction: rank, weight, bucketize, emit.

Input corpus format (UTF-8 JSONL, one article per line):

    {"id": "...", "label": "fake"|"real", "news_text": "...",
     "ground_truth_explanation": "...",
     "candidates": [{"model_id": "...", "text": "..."}, x3],
     "actuality_preferred": 0.9,            # optional, [0, 1]
     "actuality_candidates": [0.1, 0.5, 0.8]}  # optional, 3 values in [0, 1]

These are the fields of :class:`ArticleRecord` and :class:`Candidate`. A
record is checked when it is built, and ``replace`` re-checks one edited in
place: a key they do not name, a missing key, or a value of the wrong type
or outside its limits (a label other than "fake" or "real", an actuality
score outside [0, 1]) raises :class:`SchemaError`, naming a corpus line.

Every article carries exactly three candidate (rejected) explanations.
Each candidate is scored against the ground-truth explanation with the
weighted metric blend, ranked per article (rank 0 = highest score, ties
broken by ascending model_id), given the actuality weights carried on its
record, and routed to a quality bucket: rank 2 -> B_L, rank 1 -> B_M,
rank 0 -> B_H. Buckets become curriculum stages in either "algorithm1"
order (B_L, B_M, B_H) or "section4" order (B_H, B_M, B_L).

Actuality file format, read by :func:`embed_actuality`: lines of
``<record_id> <role> <score>`` where role is ``pref`` or
``cand0``/``cand1``/``cand2`` (original candidate index).
"""

from __future__ import annotations

import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .fileio import (
    SCORE, check_kinds, check_object, check_seed, check_value, json_lines, kind_problem, limited, read_json, write_atomic
)
from .textmetrics import SemanticScorer, final_score, rouge_l_and_meteor, semantic_scores, tokenize

LABELS = ("fake", "real")
CANDIDATES_PER_ARTICLE = 3

BUCKET_BY_RANK = {2: "B_L", 1: "B_M", 0: "B_H"}
STAGE_ORDERS = {
    "algorithm1": ("B_L", "B_M", "B_H"),
    "section4": ("B_H", "B_M", "B_L"),
}
DEFAULT_SPLIT = (0.75, 0.05, 0.20)
# Every s_w and s_l of a corpus in which some record carries no actuality.
DEFAULT_ACTUALITY = 0.5
ACTUALITY_ROLES = ("pref",) + tuple("cand%d" % i for i in range(CANDIDATES_PER_ARTICLE))

T = TypeVar("T")


class SchemaError(ValueError):
    """A corpus record violates the documented schema."""


class ActualityError(ValueError):
    """An actuality score is missing or out of range."""


@dataclass
class Candidate:
    """One candidate explanation of an article: its ``text``, and the ``model_id`` of the model that wrote it."""

    model_id: str
    text: str


@dataclass
class ArticleRecord:
    """One fact-checked news item and its candidate explanations; the fields are its corpus keys, checked when built."""

    id: str
    label: str = limited(("one of", LABELS))
    news_text: str
    ground_truth_explanation: str
    candidates: list[Candidate]
    actuality_preferred: float | None = limited(*SCORE, default=None)
    actuality_candidates: list[float] | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.candidates, list) and all(isinstance(c, Candidate) for c in self.candidates)):
            raise SchemaError("malformed record: candidates must be a list of objects, got %r" % (self.candidates,))
        for prefix, part in [("", self)] + [("candidates[%d]." % i, c) for i, c in enumerate(self.candidates)]:
            check_kinds(part, SchemaError, prefix)
        if not self.id:
            raise SchemaError("record id must be non-empty")
        if not self.news_text:
            raise SchemaError("news_text must be non-empty")
        if len(self.candidates) != CANDIDATES_PER_ARTICLE:
            raise SchemaError(
                "expected exactly %d candidates, got %d"
                % (CANDIDATES_PER_ARTICLE, len(self.candidates))
            )
        scores = self.actuality_candidates
        if scores is not None:
            if not (isinstance(scores, list) and len(scores) == CANDIDATES_PER_ARTICLE):
                raise SchemaError(
                    "actuality_candidates must be a list of %d numbers, got %r" % (CANDIDATES_PER_ARTICLE, scores)
                )
            for i, score in enumerate(scores):
                check_value("actuality_candidates[%d]" % i, "float", score, *SCORE, error=SchemaError)

    def to_json_dict(self) -> dict:
        out = {key: value for key, value in vars(self).items() if value is not None}
        out["candidates"] = [dict(vars(c)) for c in self.candidates]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ArticleRecord":
        """The record of a corpus line's object; building it checks every value."""
        candidates = data.get("candidates") if isinstance(data, dict) else None
        try:
            if isinstance(candidates, list) and all(isinstance(c, dict) for c in candidates):
                data = {**data, "candidates": [Candidate(**c) for c in candidates]}
            return cls(**data)
        except TypeError as exc:
            raise SchemaError("malformed record: %s" % exc) from exc


@dataclass(kw_only=True)
class PreferencePair:
    """One (prompt, preferred, rejected) training instance.

    The fields, in order, are the JSON keys of a stage, val or test line.
    article_id, candidate_index and model_id tie the pair back to its
    source record, whose actuality scores are s_w/s_l; bucket is filled
    by :func:`bucketize`.
    """

    id: str
    article_id: str
    candidate_index: int
    model_id: str
    prompt: str
    preferred: str
    rejected: str
    s_w: float | None = limited(*SCORE, default=None)
    s_l: float | None = limited(*SCORE, default=None)
    fs: float
    rank: int
    bucket: str | None = None

    def to_json_dict(self) -> dict:
        return dict(vars(self))

    def validate(self) -> None:
        check_kinds(self, SchemaError)

    @classmethod
    def from_json_dict(cls, data: dict) -> "PreferencePair":
        try:
            pair = cls(**data)
        except TypeError as exc:
            raise SchemaError("malformed pair: %s" % exc) from exc
        pair.validate()
        return pair


@dataclass
class CurriculumDataset:
    """Ordered training stages; together the stages partition all pairs."""

    stages: list[tuple[str, list[PreferencePair]]]
    order: str

    def all_pairs(self) -> list[PreferencePair]:
        return [pair for _, pairs in self.stages for pair in pairs]


# ---------------------------------------------------------------------------
# Corpus I/O


def _parse_jsonl(path: Path, lines: Iterable[bytes], parse: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """(line number, record) of each non-blank line of the JSONL file ``path``,
    decoded from the byte ``lines`` one at a time; errors name the file and line."""
    for lineno, line in enumerate(lines, start=1):
        try:
            text = line.decode("utf-8")
            if text.strip():
                yield lineno, parse(json.loads(text))
        except UnicodeDecodeError as exc:
            raise SchemaError("%s:%d: not UTF-8: %s" % (path, lineno, exc)) from exc
        except json.JSONDecodeError as exc:
            raise SchemaError("%s:%d: invalid JSON: %s" % (path, lineno, exc)) from exc
        except SchemaError as exc:
            raise SchemaError("%s:%d: %s" % (path, lineno, exc)) from exc


def load_articles(path: str | Path) -> list[ArticleRecord]:
    """Read a JSONL corpus, each line's record checked as it is built; errors carry the offending line."""
    path = Path(path)
    records: list[ArticleRecord] = []
    seen_ids: set[str] = set()
    with path.open("rb") as handle:
        for lineno, record in _parse_jsonl(path, handle, ArticleRecord.from_json_dict):
            if record.id in seen_ids:
                raise SchemaError("%s:%d: duplicate article id %r" % (path, lineno, record.id))
            seen_ids.add(record.id)
            records.append(record)
    return records


def embed_actuality(records: Iterable[ArticleRecord], path: str | Path) -> list[ArticleRecord]:
    """Copies of ``records`` carrying the scores of an actuality file.

    Each line is ``<record_id> <role> <score>`` with a role from
    ``ACTUALITY_ROLES`` and a score in [0, 1]; blank lines are skipped.
    A malformed line, a bad or out-of-range score, a role given twice for
    one record, or a record without a score for some role raises
    :class:`ActualityError` naming the file (and line).
    """
    path = Path(path)
    scores: dict[tuple[str, str], tuple[float, int]] = {}
    with path.open("rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                parts = line.decode("utf-8").split()
            except UnicodeDecodeError as exc:
                raise ActualityError("%s:%d: not UTF-8: %s" % (path, lineno, exc)) from exc
            if not parts:
                continue
            if len(parts) != 3 or parts[1] not in ACTUALITY_ROLES:
                raise ActualityError(
                    "%s:%d: expected '<record_id> <%s> <score>'" % (path, lineno, "|".join(ACTUALITY_ROLES))
                )
            record_id, role, raw = parts
            try:
                score = float(raw)
            except ValueError:
                raise ActualityError("%s:%d: bad score %r" % (path, lineno, raw)) from None
            check_value("score", "float", score, *SCORE, error=ActualityError, prefix="%s:%d: " % (path, lineno))
            if (record_id, role) in scores:
                raise ActualityError(
                    "%s:%d: duplicate %s score for record %r (first given on line %d)"
                    % (path, lineno, role, record_id, scores[record_id, role][1])
                )
            scores[record_id, role] = (score, lineno)

    def lookup(record_id: str, role: str) -> float:
        try:
            return scores[record_id, role][0]
        except KeyError:
            raise ActualityError("%s: no %s score for record %r" % (path, role, record_id)) from None

    return [
        replace(
            record,
            actuality_preferred=lookup(record.id, "pref"),
            actuality_candidates=[lookup(record.id, role) for role in ACTUALITY_ROLES[1:]],
        )
        for record in records
    ]


def _article_lines(records: Iterable[ArticleRecord]) -> str:
    return "".join(
        json.dumps(r.to_json_dict(), ensure_ascii=False) + "\n" for r in records
    )


def dump_articles(records: Iterable[ArticleRecord], path: str | Path) -> Path:
    return write_atomic(path, _article_lines(records))


def articles_sha256(records: Iterable[ArticleRecord]) -> str:
    return hashlib.sha256(_article_lines(records).encode("utf-8")).hexdigest()


def _parse_pairs(path: Path, data: bytes) -> list[PreferencePair]:
    return [pair for _, pair in _parse_jsonl(path, io.BytesIO(data), PreferencePair.from_json_dict)]


def load_pairs(path: str | Path) -> list[PreferencePair]:
    """Read a JSONL pair file; errors carry the offending line."""
    path = Path(path)
    return _parse_pairs(path, path.read_bytes())


def _pair_bytes(pairs: Iterable[PreferencePair]) -> bytes:
    """The UTF-8 bytes of a pair file: one JSON line per pair, each
    ``json.dumps(pair.to_json_dict(), ensure_ascii=False) + "\n"`` byte
    for byte, formatted column by column by ``fileio.json_lines``
    (strings escaped as json.dumps escapes them, ints and floats by their
    ``__repr__``, None as null). A pair the line template cannot write
    exactly, such as one with a NaN or infinite ``fs``, a bool, a numpy
    value or an int subclass, goes through ``json.dumps`` itself, the
    oracle the tests compare every line with. Each line is encoded as it
    comes, so the file's text is never held beside its bytes."""
    buffer = io.BytesIO()
    for line in json_lines(pairs):
        buffer.write(line.encode("utf-8"))
    return buffer.getvalue()


def dump_pairs(pairs: Iterable[PreferencePair], path: str | Path) -> Path:
    """Write one JSON line per pair, the file's bytes at once (see
    ``_pair_bytes``)."""
    return write_atomic(path, _pair_bytes(pairs))


# ---------------------------------------------------------------------------
# Scoring and ranking


def score_and_rank(record: ArticleRecord, semantic: SemanticScorer | None = None) -> list[PreferencePair]:
    """Score the three candidates and assign ranks by descending score.

    Each candidate's score is :func:`final_score` of its semantic score,
    ROUGE-L F1 and METEOR against the ground truth, which is tokenized
    once. ``semantic`` (by default ``char_trigram_cosine``) is
    called once per article, with the candidate texts and the ground
    truth; a result that is not one real number per candidate raises
    ValueError naming the article. Rank 0 is the candidate most aligned
    with the ground truth; ties break by ascending model_id so the output
    is a deterministic function of the record. s_w and s_l are the
    record's actuality scores, None where it carries none. Returned pairs
    are ordered by candidate index. The record was checked when built.
    """
    truth = record.ground_truth_explanation
    texts = [cand.text for cand in record.candidates]
    similarities = semantic_scores(semantic, texts, truth, "article %r" % record.id)
    ref = tokenize(truth)
    s_l = record.actuality_candidates or [None] * CANDIDATES_PER_ARTICLE
    scored = []
    for idx, (cand, similarity) in enumerate(zip(record.candidates, similarities)):
        rl, mt = rouge_l_and_meteor(tokenize(cand.text), ref)
        fs = final_score(similarity, rl.f1, mt)
        scored.append((fs, cand, idx))
    by_quality = sorted(scored, key=lambda item: (-item[0], item[1].model_id))
    rank_by_index = {idx: rank for rank, (_, _, idx) in enumerate(by_quality)}
    return [
        PreferencePair(
            id="%s#c%d" % (record.id, idx),
            article_id=record.id,
            candidate_index=idx,
            model_id=cand.model_id,
            prompt=record.news_text,
            preferred=truth,
            rejected=cand.text,
            fs=fs,
            rank=rank_by_index[idx],
            s_w=_score(record.actuality_preferred),
            s_l=_score(s_l[idx]),
        )
        for fs, cand, idx in scored
    ]


def _score(value: float | None) -> float | None:
    """An actuality value as a float (a corpus may hold 0 or 1 as JSON ints)."""
    return None if value is None else float(value)


# ---------------------------------------------------------------------------
# Bucketization and emission


def bucketize(pairs: Sequence[PreferencePair], order: str = "algorithm1") -> CurriculumDataset:
    """Route each pair to its quality bucket and order the stages.

    Requires every article to contribute exactly the ranks {0, 1, 2}.
    Within a stage, pairs are sorted by article id so output never depends
    on processing order.
    """
    check_value("order", "str", order, ("one of", tuple(STAGE_ORDERS)))
    by_article: dict[str, list[PreferencePair]] = {}
    for pair in pairs:
        by_article.setdefault(pair.article_id, []).append(pair)
    buckets: dict[str, list[PreferencePair]] = {name: [] for name in BUCKET_BY_RANK.values()}
    for article_id in sorted(by_article):
        group = by_article[article_id]
        ranks = sorted(p.rank for p in group)
        if ranks != list(range(CANDIDATES_PER_ARTICLE)):
            raise ValueError(
                "article %r must contribute ranks 0..%d, got %s"
                % (article_id, CANDIDATES_PER_ARTICLE - 1, ranks)
            )
        for pair in group:
            pair.bucket = BUCKET_BY_RANK[pair.rank]
            buckets[pair.bucket].append(pair)
    return CurriculumDataset(
        stages=[(name, buckets[name]) for name in STAGE_ORDERS[order]], order=order
    )


def _check_split(fractions: Sequence[float]) -> None:
    """ValueError unless ``fractions`` are three finite non-negative numbers summing to 1."""
    shown = tuple(fractions) if isinstance(fractions, Iterable) else fractions
    if not isinstance(shown, tuple) or len(shown) != 3 or any(kind_problem("float", f) or f < 0 for f in shown):
        raise ValueError("split fractions must be three non-negative values, got %r" % (shown,))
    if abs(sum(shown) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1, got %r" % (shown,))


def split_articles(
    articles: Sequence[ArticleRecord],
    fractions: Sequence[float] = DEFAULT_SPLIT,
    seed: int = 0,
) -> tuple[list[ArticleRecord], list[ArticleRecord], list[ArticleRecord]]:
    """Shuffle articles with the seed and split train/val/test by fraction.

    The split happens at article level so no article's pairs leak across
    splits; an article id given twice, or a seed that is not an integer
    >= 0, raises ValueError.
    """
    _check_split(fractions)
    check_seed(seed)
    repeated = [i for i, n in Counter(article.id for article in articles).items() if n > 1]
    if repeated:
        raise ValueError("duplicate article id %r" % repeated[0])
    rng = np.random.default_rng(seed)
    shuffled = [articles[i] for i in rng.permutation(len(articles))]
    n_train = int(round(fractions[0] * len(articles)))
    n_val = int(round(fractions[1] * len(articles)))
    n_train = min(n_train, len(articles))
    n_val = min(n_val, len(articles) - n_train)
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )


@dataclass
class ForgeResult:
    """Everything the pipeline produced for one corpus."""

    curriculum: CurriculumDataset
    val_pairs: list[PreferencePair]
    test_pairs: list[PreferencePair]
    split: tuple[float, float, float]
    seed: int
    corpus_sha256: str
    n_articles: int


def forge(
    articles: Sequence[ArticleRecord],
    semantic: SemanticScorer | None = None,
    *,
    order: str = "algorithm1",
    split: Sequence[float] = DEFAULT_SPLIT,
    seed: int = 0,
) -> ForgeResult:
    """Full pipeline: split, score, rank, weight, bucketize.

    ``semantic``, a ``(candidates, reference) -> scores`` function, is
    handed to :func:`score_and_rank`, which calls it once per article and
    weights each pair with its record's actuality scores. If any record
    lacks them, every pair of the corpus gets ``DEFAULT_ACTUALITY`` as its
    s_w and s_l instead, set on the scored pairs as ``bucketize`` sets
    their bucket; no record is rebuilt or checked again.
    """
    corpus_sha256 = articles_sha256(articles)
    default = any(r.actuality_preferred is None or r.actuality_candidates is None for r in articles)
    train, val, test = split_articles(articles, split, seed)

    def build(records: Sequence[ArticleRecord]) -> list[PreferencePair]:
        scored = {record.id: score_and_rank(record, semantic) for record in records}
        pairs = [pair for article in sorted(scored) for pair in scored[article]]
        if default:
            for pair in pairs:
                pair.s_w = pair.s_l = DEFAULT_ACTUALITY
        return pairs

    curriculum = bucketize(build(train), order=order)
    return ForgeResult(
        curriculum=curriculum,
        val_pairs=build(val),
        test_pairs=build(test),
        split=tuple(split),
        seed=seed,
        corpus_sha256=corpus_sha256,
        n_articles=len(articles),
    )


def _file_entry(pairs: Sequence[PreferencePair], path: Path) -> dict:
    """Write the pair file at ``path`` and return its manifest entry, whose
    sha256 is taken over the bytes just written, not read back."""
    data = _pair_bytes(pairs)
    write_atomic(path, data)
    return {"file": path.name, "pairs": len(pairs), "sha256": hashlib.sha256(data).hexdigest()}


MANIFEST_NAME = "manifest.json"


def emit_forge(result: ForgeResult, out_dir: str | Path) -> Path:
    """Write one JSONL file per stage plus val/test files and a manifest.

    Output is a deterministic function of the result (no timestamps), so
    re-emitting unchanged data yields byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage_entries = []
    for position, (bucket, pairs) in enumerate(result.curriculum.stages):
        entry = _file_entry(pairs, out_dir / ("stage_%d_%s.jsonl" % (position, bucket)))
        stage_entries.append({"bucket": bucket, **entry})
    manifest = {
        "order": result.curriculum.order,
        "stages": stage_entries,
        "val": _file_entry(result.val_pairs, out_dir / "val.jsonl"),
        "test": _file_entry(result.test_pairs, out_dir / "test.jsonl"),
        "split": {"train": result.split[0], "val": result.split[1], "test": result.split[2]},
        "seed": result.seed,
        "articles": result.n_articles,
        "corpus_sha256": result.corpus_sha256,
    }
    return write_atomic(out_dir / MANIFEST_NAME, json.dumps(manifest, ensure_ascii=False, indent=2) + "\n")


# The manifest keys read back, and the keys of each file entry, with their kinds.
_MANIFEST_KEYS = {"order": "str", "stages": "list", "val": "dict", "test": "dict"}
_ENTRY_KEYS = {"file": "str", "pairs": "int", "sha256": "str"}


def read_manifest(out_dir: str | Path) -> dict:
    """The manifest ``emit_forge`` wrote in ``out_dir``. Bytes that are not
    UTF-8 JSON, a key that train and eval read back missing or of the
    wrong type, or an
    entry whose ``file`` is not a bare file name (so would be read from
    outside ``out_dir``) raises :class:`SchemaError` naming the file."""
    path = Path(out_dir) / MANIFEST_NAME
    manifest = read_json(path, SchemaError, str(path))
    check_object(manifest, _MANIFEST_KEYS, "%s: the manifest" % path, SchemaError, required=True)
    stage_keys = {"bucket": "str", **_ENTRY_KEYS}
    entries = [("stage entry %d" % i, entry, stage_keys) for i, entry in enumerate(manifest["stages"])]
    entries += [("the %s entry" % name, manifest[name], _ENTRY_KEYS) for name in ("val", "test")]
    for where, entry, keys in entries:
        check_object(entry, keys, "%s: %s" % (path, where), SchemaError, required=True)
        name = entry["file"]
        if name in ("", ".", "..") or Path(name).name != name:
            raise SchemaError(
                "%s: %s key 'file' must be a file name in the manifest's directory, got %r" % (path, where, name)
            )
    return manifest


def load_checked_pairs(out_dir: str | Path, entry: dict) -> list[PreferencePair]:
    """The pairs of the file a manifest ``entry`` lists, which must still
    hold the entry's pair count and sha256; a mismatch raises
    :class:`SchemaError` naming the file."""
    path = Path(out_dir) / entry["file"]
    data = path.read_bytes()
    pairs = _parse_pairs(path, data)
    if len(pairs) != entry["pairs"]:
        raise SchemaError("%s: holds %d pairs, the manifest lists %d" % (path, len(pairs), entry["pairs"]))
    if hashlib.sha256(data).hexdigest() != entry["sha256"]:
        raise SchemaError("%s: sha256 differs from the manifest's" % path)
    return pairs


def load_curriculum(out_dir: str | Path) -> CurriculumDataset:
    """Rebuild the curriculum from an emitted manifest and its checked
    stage files."""
    manifest = read_manifest(out_dir)
    stages = [(entry["bucket"], load_checked_pairs(out_dir, entry)) for entry in manifest["stages"]]
    return CurriculumDataset(stages=stages, order=manifest["order"])
