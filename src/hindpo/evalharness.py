"""Generation and metric reporting for trained policies.

``generate`` decodes every prompt through the policy's one table sampler;
greedy decoding is its zero-temperature table, not a separate loop.
Reporting produces one row per configuration (base, dpo, dpo_act,
dpo_fin, hin_dpo) with corpus-level ROUGE-1/2/L, METEOR and semantic
scores, rendered as an aligned text table (values x100, two decimals, best
column value starred) plus a machine-readable JSON file with full
precision.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .fileio import check_seed, kind_problem, write_atomic
from .losses import MODES
from .policy import BOS, EOS, BigramPolicy, check_decoding
from .textmetrics import SemanticScorer, rouge_l_and_meteor, rouge_n, semantic_scores, tokenize

CONFIG_ORDER = ("base", *MODES)

_COLUMNS = ("r1", "r2", "rl", "meteor", "semantic")
_HEADERS = ("R-1", "R-2", "R-L", "MT", "Sem")


@dataclass(frozen=True)
class MetricReport:
    """Corpus-level metric means for one configuration, each in [0, 1]."""

    config_name: str
    r1: float
    r2: float
    rl: float
    meteor: float
    semantic: float


def _texts(name: str, texts: Iterable[str]) -> list[str]:
    """``texts`` as a list; ValueError naming ``name`` if it is one string,
    or naming ``name`` and the index of its first entry that is not a string."""
    if isinstance(texts, str):
        raise ValueError("%s must be a sequence of strings, got %r" % (name, texts))
    texts = list(texts)
    for i, text in enumerate(texts):
        if not isinstance(text, str):
            raise ValueError("%s[%d] %s" % (name, i, kind_problem("str", text)))
    return texts


def generate(
    policy: BigramPolicy,
    prompts: Sequence[str],
    max_len: int = 24,
    temperature: float = 0.0,
    seed: int = 0,
) -> list[str]:
    """Decode one response text per prompt.

    Every temperature decodes through one ``BigramPolicy.sample_responses``
    call, from one temperature table for all prompts and a generator
    seeded once for the whole batch, so the same seed reproduces the same
    outputs. Temperature 0 is greedy decoding: its table takes each row's
    argmax, whatever the generator draws. A ``max_len`` that is not an
    integer >= 1, a temperature that is not a finite number >= 0 or a seed
    that is not an integer >= 0 (a bool is none of them) raises ValueError
    before any prompt is read, as does a string passed as ``prompts`` or a
    prompt that is not a string, named by its index.
    """
    check_decoding(max_len, temperature)
    check_seed(seed)
    token_prompts = [tokenize(prompt) for prompt in _texts("prompts", prompts)]
    responses = policy.sample_responses(token_prompts, temperature, max_len, np.random.default_rng(seed))
    return [" ".join(t for t in tokens if t not in (BOS, EOS)) for tokens in responses]


def evaluate(
    generated: Sequence[str],
    references: Sequence[str],
    config_name: str,
    semantic: SemanticScorer | None = None,
) -> MetricReport:
    """Corpus scores as the arithmetic mean of per-pair scores.

    ``semantic`` (by default ``char_trigram_cosine``) scores each
    generated text against its reference as a one-candidate batch,
    ``[s] = semantic([generated], reference)``; a result that is not one
    real number raises ValueError naming the pair's index, as does a
    generated text or reference that is not a string; a string passed as
    either sequence raises ValueError too.
    """
    generated, references = _texts("generated", generated), _texts("references", references)
    if len(generated) != len(references):
        raise ValueError(
            "generated and references must have equal length: %d vs %d"
            % (len(generated), len(references))
        )
    if not generated:
        raise ValueError("evaluate needs at least one generated/reference pair, got none")
    rows = []
    for i, (cand_text, ref_text) in enumerate(zip(generated, references)):
        cand = tokenize(cand_text)
        ref = tokenize(ref_text)
        rl, mt = rouge_l_and_meteor(cand, ref)
        rows.append(
            (
                rouge_n(cand, ref, 1).f1,
                rouge_n(cand, ref, 2).f1,
                rl.f1,
                mt,
                *semantic_scores(semantic, [cand_text], ref_text, "pair %d" % i),
            )
        )
    means = [float(np.mean(col)) for col in zip(*rows)]
    return MetricReport(config_name, *means)


def _ordered(reports: Sequence[MetricReport]) -> list[MetricReport]:
    by_name = {r.config_name: r for r in reports}
    ordered = [by_name.pop(name) for name in CONFIG_ORDER if name in by_name]
    ordered.extend(by_name.values())
    return ordered


def report_table(reports: Sequence[MetricReport], json_path: str | Path | None = None) -> str:
    """Render the metric table; optionally write the JSON companion file.

    Cells show value x 100 with two decimals; the best value in each
    column carries a trailing ``*``.
    """
    if not reports:
        raise ValueError("need at least one report")
    ordered = _ordered(reports)
    columns = [("Config", *(r.config_name for r in ordered))]
    for column, header in zip(_COLUMNS, _HEADERS):
        values = [getattr(r, column) for r in ordered]
        best = max(values)
        columns.append((header, *("%.2f%s" % (v * 100, "*" if v == best else "") for v in values)))
    widths = [max(map(len, cells)) for cells in columns]
    lines = ["  ".join([row[0].ljust(widths[0]), *map(str.rjust, row[1:], widths[1:])]) for row in zip(*columns)]
    text = "\n".join(lines) + "\n"
    if json_path is not None:
        payload = [{"config": r.config_name, **{c: getattr(r, c) for c in _COLUMNS}} for r in ordered]
        write_atomic(json_path, json.dumps(payload, ensure_ascii=False, indent=2) + "\n")
    return text


def parse_table(text: str) -> dict[str, dict[str, float]]:
    """Read a rendered table back into {config: {column: value x 100}}."""
    lines = [line for line in text.splitlines() if line.strip()]
    out: dict[str, dict[str, float]] = {}
    for line in lines[1:]:
        parts = line.split()
        name, cells = parts[0], parts[1:]
        out[name] = {
            column: float(re.sub(r"\*$", "", cell))
            for column, cell in zip(_COLUMNS, cells)
        }
    return out
