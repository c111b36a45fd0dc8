"""Preference-dataset construction: rank, weight, bucketize, emit.

Input corpus format (UTF-8 JSONL, one article per line):

    {"id": "...", "label": "fake"|"real", "news_text": "...",
     "ground_truth_explanation": "...",
     "candidates": [{"model_id": "...", "text": "..."}, x3],
     "actuality_preferred": 0.9,            # optional, [0, 1]
     "actuality_candidates": [0.1, 0.5, 0.8]}  # optional, 3 values in [0, 1]

Every article carries exactly three candidate (rejected) explanations.
Each candidate is scored against the ground-truth explanation with the
weighted metric blend, ranked per article (rank 0 = highest score, ties
broken by ascending model_id), given actuality weights from a pluggable
provider, and routed to a quality bucket: rank 2 -> B_L, rank 1 -> B_M,
rank 0 -> B_H. Buckets become curriculum stages in either "algorithm1"
order (B_L, B_M, B_H) or "section4" order (B_H, B_M, B_L).

Actuality file format: lines of ``<record_id> <role> <score>`` where role
is ``pref`` or ``cand0``/``cand1``/``cand2`` (original candidate index).
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .textmetrics import (
    CharTrigramCosine,
    SemanticScorer,
    final_score,
    meteor,
    rouge_l,
    tokenize,
)

LABELS = ("fake", "real")
CANDIDATES_PER_ARTICLE = 3

BUCKET_BY_RANK = {2: "B_L", 1: "B_M", 0: "B_H"}
STAGE_ORDERS = {
    "algorithm1": ("B_L", "B_M", "B_H"),
    "section4": ("B_H", "B_M", "B_L"),
}
DEFAULT_SPLIT = (0.75, 0.05, 0.20)

T = TypeVar("T")


class SchemaError(ValueError):
    """A corpus record violates the documented schema."""


class ActualityError(ValueError):
    """An actuality score is missing or out of range."""


@dataclass
class Candidate:
    model_id: str
    text: str


@dataclass
class ArticleRecord:
    """One fact-checked news item with its candidate explanations."""

    id: str
    label: str
    news_text: str
    ground_truth_explanation: str
    candidates: list[Candidate]
    actuality_preferred: float | None = None
    actuality_candidates: list[float] | None = None

    def validate(self) -> None:
        if not self.id:
            raise SchemaError("record id must be non-empty")
        if self.label not in LABELS:
            raise SchemaError("label must be one of %s, got %r" % (LABELS, self.label))
        if not self.news_text:
            raise SchemaError("news_text must be non-empty")
        if len(self.candidates) != CANDIDATES_PER_ARTICLE:
            raise SchemaError(
                "expected exactly %d candidates, got %d"
                % (CANDIDATES_PER_ARTICLE, len(self.candidates))
            )
        if self.actuality_preferred is not None and not 0.0 <= self.actuality_preferred <= 1.0:
            raise SchemaError("actuality_preferred must be in [0, 1]")
        if self.actuality_candidates is not None:
            if len(self.actuality_candidates) != CANDIDATES_PER_ARTICLE:
                raise SchemaError("actuality_candidates must hold %d values" % CANDIDATES_PER_ARTICLE)
            if any(not 0.0 <= s <= 1.0 for s in self.actuality_candidates):
                raise SchemaError("actuality_candidates values must be in [0, 1]")

    def to_json_dict(self) -> dict:
        out: dict = {
            "id": self.id,
            "label": self.label,
            "news_text": self.news_text,
            "ground_truth_explanation": self.ground_truth_explanation,
            "candidates": [{"model_id": c.model_id, "text": c.text} for c in self.candidates],
        }
        if self.actuality_preferred is not None:
            out["actuality_preferred"] = self.actuality_preferred
        if self.actuality_candidates is not None:
            out["actuality_candidates"] = list(self.actuality_candidates)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ArticleRecord":
        try:
            record = cls(
                id=data["id"],
                label=data["label"],
                news_text=data["news_text"],
                ground_truth_explanation=data["ground_truth_explanation"],
                candidates=[Candidate(c["model_id"], c["text"]) for c in data["candidates"]],
                actuality_preferred=data.get("actuality_preferred"),
                actuality_candidates=data.get("actuality_candidates"),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError("malformed record: %s" % exc) from exc
        try:
            record.validate()
        except TypeError as exc:
            raise SchemaError("malformed record: %s" % exc) from exc
        return record


@dataclass
class PreferencePair:
    """One (prompt, preferred, rejected) training instance.

    article_id, candidate_index and model_id tie the pair back to its
    source record; s_w/s_l and bucket are filled by later pipeline steps.
    """

    id: str
    article_id: str
    candidate_index: int
    model_id: str
    prompt: str
    preferred: str
    rejected: str
    fs: float
    rank: int
    s_w: float | None = None
    s_l: float | None = None
    bucket: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "article_id": self.article_id,
            "candidate_index": self.candidate_index,
            "model_id": self.model_id,
            "prompt": self.prompt,
            "preferred": self.preferred,
            "rejected": self.rejected,
            "s_w": self.s_w,
            "s_l": self.s_l,
            "fs": self.fs,
            "rank": self.rank,
            "bucket": self.bucket,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PreferencePair":
        try:
            return cls(**data)
        except TypeError as exc:
            raise SchemaError("malformed pair: %s" % exc) from exc


@dataclass
class CurriculumDataset:
    """Ordered training stages; together the stages partition all pairs."""

    stages: list[tuple[str, list[PreferencePair]]]
    order: str

    def all_pairs(self) -> list[PreferencePair]:
        return [pair for _, pairs in self.stages for pair in pairs]


# ---------------------------------------------------------------------------
# Corpus I/O


def _parse_jsonl(path: Path, parse: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """(line number, parsed record) of each non-blank line of a JSONL file;
    errors name the file and line."""
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                yield lineno, parse(json.loads(line))
            except json.JSONDecodeError as exc:
                raise SchemaError("%s:%d: invalid JSON: %s" % (path, lineno, exc)) from exc
            except SchemaError as exc:
                raise SchemaError("%s:%d: %s" % (path, lineno, exc)) from exc


def load_articles(path: str | Path) -> list[ArticleRecord]:
    """Read and validate a JSONL corpus; errors carry the offending line."""
    path = Path(path)
    records: list[ArticleRecord] = []
    seen_ids: set[str] = set()
    for lineno, record in _parse_jsonl(path, ArticleRecord.from_json_dict):
        if record.id in seen_ids:
            raise SchemaError("%s:%d: duplicate article id %r" % (path, lineno, record.id))
        seen_ids.add(record.id)
        records.append(record)
    return records


def _article_lines(records: Iterable[ArticleRecord]) -> str:
    return "".join(
        json.dumps(r.to_json_dict(), ensure_ascii=False) + "\n" for r in records
    )


def dump_articles(records: Iterable[ArticleRecord], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(_article_lines(records), encoding="utf-8")
    return path


def articles_sha256(records: Iterable[ArticleRecord]) -> str:
    return hashlib.sha256(_article_lines(records).encode("utf-8")).hexdigest()


def load_pairs(path: str | Path) -> list[PreferencePair]:
    """Read a JSONL pair file; errors carry the offending line."""
    return [pair for _, pair in _parse_jsonl(Path(path), PreferencePair.from_json_dict)]


def dump_pairs(pairs: Iterable[PreferencePair], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(
        "".join(json.dumps(p.to_json_dict(), ensure_ascii=False) + "\n" for p in pairs),
        encoding="utf-8",
    )
    return path


# ---------------------------------------------------------------------------
# Scoring and ranking


@dataclass
class MetricBundle:
    """The scorers used to rank candidates against the ground truth."""

    semantic: SemanticScorer = field(default_factory=CharTrigramCosine)

    def fs(self, cand_text: str, ref_text: str) -> float:
        cand = tokenize(cand_text)
        ref = tokenize(ref_text)
        return final_score(
            self.semantic.score(cand_text, ref_text),
            rouge_l(cand, ref).f1,
            meteor(cand, ref),
        )


def score_and_rank(record: ArticleRecord, scorer: MetricBundle) -> list[PreferencePair]:
    """Score the three candidates and assign ranks by descending score.

    Rank 0 is the candidate most aligned with the ground truth; ties break
    by ascending model_id so the output is a deterministic function of the
    record. Returned pairs are ordered by candidate index.
    """
    record.validate()
    scored = [
        (scorer.fs(cand.text, record.ground_truth_explanation), cand, idx)
        for idx, cand in enumerate(record.candidates)
    ]
    by_quality = sorted(scored, key=lambda item: (-item[0], item[1].model_id))
    rank_by_index = {idx: rank for rank, (_, _, idx) in enumerate(by_quality)}
    return [
        PreferencePair(
            id="%s#c%d" % (record.id, idx),
            article_id=record.id,
            candidate_index=idx,
            model_id=cand.model_id,
            prompt=record.news_text,
            preferred=record.ground_truth_explanation,
            rejected=cand.text,
            fs=fs,
            rank=rank_by_index[idx],
        )
        for fs, cand, idx in scored
    ]


# ---------------------------------------------------------------------------
# Actuality providers


class ActualityProvider(ABC):
    """Source of factual-consistency scores for preferred/rejected texts."""

    @abstractmethod
    def preferred_score(self, article_id: str) -> float: ...

    @abstractmethod
    def candidate_score(self, article_id: str, candidate_index: int) -> float: ...


class ConstantActuality(ActualityProvider):
    """Stub provider: the same score for everything."""

    def __init__(self, value: float):
        if not 0.0 <= value <= 1.0:
            raise ActualityError("constant actuality must be in [0, 1], got %r" % value)
        self.value = value

    def preferred_score(self, article_id: str) -> float:
        return self.value

    def candidate_score(self, article_id: str, candidate_index: int) -> float:
        return self.value


class RecordEmbeddedActuality(ActualityProvider):
    """Scores carried on the article records themselves."""

    def __init__(self, records: Iterable[ArticleRecord]):
        self._records = {r.id: r for r in records}

    def _record(self, article_id: str) -> ArticleRecord:
        try:
            return self._records[article_id]
        except KeyError:
            raise ActualityError("no record with id %r" % article_id) from None

    def preferred_score(self, article_id: str) -> float:
        value = self._record(article_id).actuality_preferred
        if value is None:
            raise ActualityError("record %r carries no actuality_preferred" % article_id)
        return value

    def candidate_score(self, article_id: str, candidate_index: int) -> float:
        values = self._record(article_id).actuality_candidates
        if values is None:
            raise ActualityError("record %r carries no actuality_candidates" % article_id)
        return values[candidate_index]


class FileActuality(ActualityProvider):
    """Scores read from a ``<record_id> <role> <score>`` lookup file."""

    _ROLES = ("pref",) + tuple("cand%d" % i for i in range(CANDIDATES_PER_ARTICLE))

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._scores: dict[tuple[str, str], float] = {}
        first_line: dict[tuple[str, str], int] = {}
        with self.path.open(encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3 or parts[1] not in self._ROLES:
                    raise ActualityError(
                        "%s:%d: expected '<record_id> <%s> <score>'"
                        % (self.path, lineno, "|".join(self._ROLES))
                    )
                record_id, role, raw = parts
                try:
                    score = float(raw)
                except ValueError:
                    raise ActualityError("%s:%d: bad score %r" % (self.path, lineno, raw)) from None
                if not 0.0 <= score <= 1.0:
                    raise ActualityError(
                        "%s:%d: score %r out of [0, 1]" % (self.path, lineno, score)
                    )
                key = (record_id, role)
                if key in first_line:
                    raise ActualityError(
                        "%s:%d: duplicate %s score for record %r (first given on line %d)"
                        % (self.path, lineno, role, record_id, first_line[key])
                    )
                first_line[key] = lineno
                self._scores[key] = score

    def _lookup(self, article_id: str, role: str) -> float:
        try:
            return self._scores[(article_id, role)]
        except KeyError:
            raise ActualityError(
                "%s: no %s score for record %r" % (self.path, role, article_id)
            ) from None

    def preferred_score(self, article_id: str) -> float:
        return self._lookup(article_id, "pref")

    def candidate_score(self, article_id: str, candidate_index: int) -> float:
        return self._lookup(article_id, "cand%d" % candidate_index)


def attach_actuality(
    pairs: list[PreferencePair], provider: ActualityProvider
) -> list[PreferencePair]:
    """Fill s_w/s_l from the provider, clamped to [0, 1]. Mutates pairs."""
    for pair in pairs:
        pair.s_w = min(1.0, max(0.0, provider.preferred_score(pair.article_id)))
        pair.s_l = min(1.0, max(0.0, provider.candidate_score(pair.article_id, pair.candidate_index)))
    return pairs


# ---------------------------------------------------------------------------
# Bucketization and emission


def bucketize(pairs: Sequence[PreferencePair], order: str = "algorithm1") -> CurriculumDataset:
    """Route each pair to its quality bucket and order the stages.

    Requires every article to contribute exactly the ranks {0, 1, 2}.
    Within a stage, pairs are sorted by article id so output never depends
    on processing order.
    """
    if order not in STAGE_ORDERS:
        raise ValueError("order must be one of %s, got %r" % (sorted(STAGE_ORDERS), order))
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


def split_articles(
    articles: Sequence[ArticleRecord],
    fractions: Sequence[float] = DEFAULT_SPLIT,
    seed: int = 0,
) -> tuple[list[ArticleRecord], list[ArticleRecord], list[ArticleRecord]]:
    """Shuffle articles with the seed and split train/val/test by fraction.

    The split happens at article level so no article's pairs leak across
    splits.
    """
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ValueError("fractions must be three non-negative values")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1, got %r" % (tuple(fractions),))
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
    scorer: MetricBundle | None = None,
    provider: ActualityProvider | None = None,
    *,
    order: str = "algorithm1",
    split: Sequence[float] = DEFAULT_SPLIT,
    seed: int = 0,
) -> ForgeResult:
    """Full pipeline: split, score, rank, weight, bucketize.

    The provider defaults to record-embedded scores when present on every
    record, otherwise a 0.5 constant stub.
    """
    scorer = scorer or MetricBundle()
    if provider is None:
        if all(r.actuality_preferred is not None and r.actuality_candidates is not None for r in articles):
            provider = RecordEmbeddedActuality(articles)
        else:
            provider = ConstantActuality(0.5)
    train, val, test = split_articles(articles, split, seed)

    def build(records: Sequence[ArticleRecord]) -> list[PreferencePair]:
        pairs: list[PreferencePair] = []
        for record in sorted(records, key=lambda r: r.id):
            pairs.extend(score_and_rank(record, scorer))
        return attach_actuality(pairs, provider)

    curriculum = bucketize(build(train), order=order)
    return ForgeResult(
        curriculum=curriculum,
        val_pairs=build(val),
        test_pairs=build(test),
        split=tuple(split),
        seed=seed,
        corpus_sha256=articles_sha256(articles),
        n_articles=len(articles),
    )


def _file_entry(pairs: Sequence[PreferencePair], path: Path) -> dict:
    dump_pairs(pairs, path)
    return {
        "file": path.name,
        "pairs": len(pairs),
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


MANIFEST_NAME = "manifest.json"


def emit_curriculum(
    dataset: CurriculumDataset,
    out_dir: str | Path,
    *,
    val_pairs: Sequence[PreferencePair] = (),
    test_pairs: Sequence[PreferencePair] = (),
    split: Sequence[float] = DEFAULT_SPLIT,
    seed: int | None = None,
    corpus_sha256: str | None = None,
    n_articles: int | None = None,
) -> Path:
    """Write one JSONL file per stage plus val/test files and a manifest.

    Output is a deterministic function of the inputs (no timestamps), so
    re-emitting unchanged data yields byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage_entries = []
    for position, (bucket, pairs) in enumerate(dataset.stages):
        entry = _file_entry(pairs, out_dir / ("stage_%d_%s.jsonl" % (position, bucket)))
        stage_entries.append({"bucket": bucket, **entry})
    manifest = {
        "order": dataset.order,
        "stages": stage_entries,
        "val": _file_entry(val_pairs, out_dir / "val.jsonl"),
        "test": _file_entry(test_pairs, out_dir / "test.jsonl"),
        "split": {"train": split[0], "val": split[1], "test": split[2]},
        "seed": seed,
        "articles": n_articles,
        "corpus_sha256": corpus_sha256,
    }
    manifest_path = out_dir / MANIFEST_NAME
    manifest_path.write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
    return manifest_path


def emit_forge(result: ForgeResult, out_dir: str | Path) -> Path:
    return emit_curriculum(
        result.curriculum,
        out_dir,
        val_pairs=result.val_pairs,
        test_pairs=result.test_pairs,
        split=result.split,
        seed=result.seed,
        corpus_sha256=result.corpus_sha256,
        n_articles=result.n_articles,
    )


def read_manifest(out_dir: str | Path) -> dict:
    return json.loads((Path(out_dir) / MANIFEST_NAME).read_text(encoding="utf-8"))


def load_curriculum(out_dir: str | Path) -> CurriculumDataset:
    """Rebuild the curriculum from an emitted manifest and stage files."""
    out_dir = Path(out_dir)
    manifest = read_manifest(out_dir)
    stages = [
        (entry["bucket"], load_pairs(out_dir / entry["file"])) for entry in manifest["stages"]
    ]
    return CurriculumDataset(stages=stages, order=manifest["order"])
