"""Generation and metric reporting for trained policies.

``generate`` decodes every prompt through the policy's one table sampler;
greedy decoding is its zero-temperature table, not a separate loop.
Reporting produces one row per configuration (base, dpo, dpo_act,
dpo_fin, hin_dpo) with corpus-level ROUGE-1/2/L, METEOR and semantic
scores, rendered as an aligned text table (values x100, two decimals, best
column value starred) plus a machine-readable JSON file with full
precision. ``evaluate_configs`` scores every configuration in one pass
over the references: each distinct text is tokenized and counted once,
and the semantic scorer is called once per reference with every
configuration's output for it; ``evaluate`` is its one-configuration view.
The per-configuration loop it replaced is kept as
``tests/oracles.py:evaluate_per_config``.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fileio import check_seed, kind_problem, write_atomic
from .losses import MODES
from .policy import BOS, EOS, BigramPolicy, check_decoding
from .textmetrics import (
    SemanticScorer,
    TokenSequence,
    _gram_overlap,
    _ngrams,
    rouge_l_and_meteor,
    semantic_scores,
    tokenize,
)

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
    prompt that is not a string, named by its index. Each distinct prompt
    is tokenized once per call.
    """
    check_decoding(max_len, temperature)
    check_seed(seed)
    prompts = _texts("prompts", prompts)
    tokens = {prompt: tokenize(prompt) for prompt in dict.fromkeys(prompts)}
    token_prompts = [tokens[prompt] for prompt in prompts]
    responses = policy.sample_responses(token_prompts, temperature, max_len, np.random.default_rng(seed))
    return [" ".join(t for t in tokens if t not in (BOS, EOS)) for tokens in responses]


def evaluate(
    generated: Sequence[str],
    references: Sequence[str],
    config_name: str,
    semantic: SemanticScorer | None = None,
) -> MetricReport:
    """Corpus scores as the arithmetic mean of per-pair scores:
    ``evaluate_configs`` with one configuration.

    ``semantic`` (by default ``char_trigram_cosine``) is called once per
    reference with every configuration's generated text for it, here
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
    return evaluate_configs({config_name: generated}, references, semantic)[0]


def evaluate_configs(
    outputs: Mapping[str, Sequence[str]],
    references: Sequence[str],
    semantic: SemanticScorer | None = None,
) -> list[MetricReport]:
    """One report per configuration of ``outputs``, in its order, each the
    mean of its per-pair scores against ``references``.

    ``outputs`` maps each configuration name to its generated texts, one
    per reference. One pass over the references scores them all: each
    distinct text is tokenized and its 1-gram and 2-gram counts built once
    per call; ``semantic`` (by default ``char_trigram_cosine``) is called
    once per reference with every configuration's text for it, in
    configuration order; each (configuration, reference) pair takes one
    ``rouge_l_and_meteor`` walk, a reference's configurations sharing its
    position-mask table. A configuration's report is what it alone gets
    from the same references. A scorer result that is not one real number
    in [0, 1] per configuration raises ValueError naming the pair's index.
    ``outputs`` that is not a mapping or is empty, a text list that is a
    string, holds a non-string or whose length differs from the
    references' (named by its configuration), or no references at all,
    raises ValueError.
    """
    if not isinstance(outputs, Mapping):
        raise ValueError("outputs must map each config name to its texts, got %s" % type(outputs).__name__)
    names = list(outputs)
    columns = [_texts("outputs[%r]" % name, outputs[name]) for name in names]
    references = _texts("references", references)
    if not names:
        raise ValueError("evaluate_configs needs at least one config, got none")
    for name, texts in zip(names, columns):
        if len(texts) != len(references):
            raise ValueError(
                "outputs[%r] and references must have equal length: %d vs %d" % (name, len(texts), len(references))
            )
    if not references:
        raise ValueError("evaluate_configs needs at least one reference, got none")
    profiles: dict[str, tuple[TokenSequence, Counter, Counter]] = {}

    def profile(text: str) -> tuple[TokenSequence, Counter, Counter]:
        # The text's tokens and their 1-gram and 2-gram counts, built once per call.
        if text not in profiles:
            tokens = tokenize(text)
            profiles[text] = (tokens, _ngrams(tokens, 1), _ngrams(tokens, 2))
        return profiles[text]

    rows: list[list[tuple[float, ...]]] = [[] for _ in names]
    for i, ref_text in enumerate(references):
        ref, ref_1, ref_2 = profile(ref_text)
        texts = [column[i] for column in columns]
        scores = semantic_scores(semantic, texts, ref_text, "pair %d" % i)
        for row, text, score in zip(rows, texts, scores):
            cand, cand_1, cand_2 = profile(text)
            rl, mt = rouge_l_and_meteor(cand, ref)
            row.append((_gram_overlap(cand_1, ref_1).f1, _gram_overlap(cand_2, ref_2).f1, rl.f1, mt, score))
    return [MetricReport(name, *(float(np.mean(col)) for col in zip(*row))) for name, row in zip(names, rows)]


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
