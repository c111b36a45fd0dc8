"""Curriculum training loop and gradient checking.

Stages run in dataset order. At the start of each stage the finesse
variance is computed once per unique prompt (finesse modes only, from one
temperature table), and the stage's pairs are encoded into transition
indices and scored under the frozen reference. Each epoch draws a
permutation of the stage's pairs and plans all its batches, with the
pairs' mode weights, in one call; each step then takes one plain
gradient-descent step on its batch, on the policy rows the batch visits.
At the end of a stage the frozen reference is optionally refreshed to the
current policy. Everything is driven by one seeded generator, so
identical inputs give identical logs and parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataforge import CurriculumDataset, PreferencePair
from .fileio import write_atomic
from .losses import LossConfig, LossExample, compute_finesse, encode_examples, loss_gradient
from .policy import EOS, BigramPolicy, Vocabulary
from .textmetrics import tokenize


class TrainingError(RuntimeError):
    """Training cannot proceed (empty stage, non-finite loss, gradient or logits)."""


@dataclass
class TrainConfig:
    epochs_per_stage: int = 10
    learning_rate: float = 0.5
    batch_size: int = 2
    seed: int = 0
    refresh_reference_per_stage: bool = True
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self) -> None:
        if self.epochs_per_stage < 1:
            raise ValueError("epochs_per_stage must be >= 1")
        if not math.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite, got %r" % self.learning_rate)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class TrainStepRecord:
    stage: str
    epoch: int
    step: int
    loss: float
    margin: float
    accuracy: float
    weighted_margin: float
    grad_norm: float


@dataclass
class TrainLog:
    records: list[TrainStepRecord] = field(default_factory=list)

    def stages(self) -> list[str]:
        out: list[str] = []
        for record in self.records:
            if not out or out[-1] != record.stage:
                out.append(record.stage)
        return out

    def save(self, path: str | Path) -> Path:
        """One JSON object per record, keys in field order."""
        return write_atomic(path, (json.dumps(vars(r), ensure_ascii=False) + "\n" for r in self.records))


def encode_pairs(pairs: Sequence[PreferencePair]) -> list[LossExample]:
    """Tokenize pair texts and append EOS to both responses.

    Missing actuality scores fall back to the neutral weights (s_w = 0,
    s_l = 1), i.e. plain unweighted behaviour.
    """
    return [
        LossExample(
            prompt=tokenize(pair.prompt),
            preferred=tokenize(pair.preferred) + [EOS],
            rejected=tokenize(pair.rejected) + [EOS],
            preferred_actuality=0.0 if pair.s_w is None else pair.s_w,
            rejected_actuality=1.0 if pair.s_l is None else pair.s_l,
        )
        for pair in pairs
    ]


def vocab_from_pairs(pairs: Sequence[PreferencePair]) -> Vocabulary:
    tokens: set[str] = set()
    for pair in pairs:
        tokens.update(tokenize(pair.prompt))
        tokens.update(tokenize(pair.preferred))
        tokens.update(tokenize(pair.rejected))
    return Vocabulary.from_tokens(tokens)


def attach_finesse(
    examples: list[LossExample],
    policy: BigramPolicy,
    config: LossConfig,
    rng: np.random.Generator,
) -> None:
    """Fill effective_variance, one estimate per unique prompt.

    An estimate depends only on the prompt's start row, its last token
    (BOS for an empty prompt): the responses are drawn and scored from that
    row on. Prompts that share a start row still draw their own samples.
    All estimates come from one ``compute_finesse`` call, in
    first-appearance order, so the generator is consumed deterministically.
    """
    prompts = list(dict.fromkeys(tuple(e.prompt) for e in examples))
    estimates = compute_finesse(policy, prompts, config, rng)
    effective = {prompt: estimate.effective for prompt, estimate in zip(prompts, estimates)}
    for example in examples:
        example.effective_variance = effective[tuple(example.prompt)]


def train(
    curriculum: CurriculumDataset,
    policy: BigramPolicy,
    config: TrainConfig,
) -> tuple[BigramPolicy, TrainLog]:
    """Run the staged training loop; mutates and returns the policy.

    The policy gets its own copy of the logit table at entry, so the
    caller's array is never written and a frozen snapshot trains too; each
    step then updates only the rows its batch visits. Per-step records
    carry the batch loss, the mean raw margin beta * (r_w - r_l), the batch
    preference accuracy, the mean weighted margin beta * S and the
    gradient's Frobenius norm, all measured against the in-stage reference
    before the update is applied. A step whose loss, gradient, updated
    logits, gradient norm or margins are not finite raises before the
    policy changes or is logged.
    """
    if not curriculum.stages:
        raise TrainingError("curriculum has no stages")
    policy.logits = np.array(policy.logits)
    rng = np.random.default_rng(config.seed)
    reference = policy.snapshot()
    log = TrainLog()
    step = 0
    for stage_name, pairs in curriculum.stages:
        if not pairs:
            raise TrainingError("stage %r is empty" % stage_name)
        examples = encode_pairs(pairs)
        if config.loss.uses_finesse():
            attach_finesse(examples, policy, config.loss, rng)
        encoded = encode_examples(examples, policy, reference)
        for epoch in range(1, config.epochs_per_stage + 1):
            for batch in encoded.plan(rng.permutation(len(encoded)), config.batch_size, config.loss):
                result = loss_gradient(batch, policy, config.loss)
                step += 1
                where = "at stage %r epoch %d step %d" % (stage_name, epoch, step)
                if not math.isfinite(result.loss):
                    raise TrainingError("non-finite loss " + where)
                gradient = result.gradient.ravel()
                if not np.isfinite(gradient).all():
                    raise TrainingError("non-finite gradient " + where)
                with np.errstate(over="ignore"):
                    updated = policy.logits[result.rows] - config.learning_rate * result.gradient
                    grad_norm = math.sqrt(gradient.dot(gradient))
                if not np.isfinite(updated).all():
                    raise TrainingError("non-finite logits after the update " + where)
                for name, value in (
                    ("gradient norm", grad_norm), ("margin", result.margin), ("weighted margin", result.weighted_margin)
                ):
                    if not math.isfinite(value):
                        raise TrainingError("non-finite %s %s" % (name, where))
                policy.logits[result.rows] = updated
                log.records.append(
                    TrainStepRecord(
                        stage_name, epoch, step, result.loss, result.margin, result.accuracy,
                        result.weighted_margin, grad_norm,
                    )
                )
        if config.refresh_reference_per_stage:
            reference = policy.snapshot()
    return policy, log


def gradcheck(
    policy: BigramPolicy,
    examples: Sequence[LossExample],
    config: LossConfig,
    reference: BigramPolicy | None = None,
    h: float = 1e-5,
) -> float:
    """Compare the analytic gradient with central finite differences.

    The batch is encoded and planned once, and every logit of a copy of
    the policy is perturbed by +/- h, so the caller's policy is never
    written and a frozen snapshot is checked too. The returned error is the
    largest entrywise deviation, scaled by the largest gradient magnitude
    (which keeps untouched, exactly-zero entries from dominating the
    ratio).
    """
    examples = list(examples)
    if not examples:
        raise ValueError("gradcheck needs a non-empty batch")
    if reference is None:
        reference = policy.snapshot()
    policy = policy.copy()
    encoded = encode_examples(examples, policy, reference)
    [batch] = encoded.plan(np.arange(len(encoded)), len(encoded), config)
    step = loss_gradient(batch, policy, config)
    analytic = np.zeros_like(policy.logits)
    analytic[step.rows] = step.gradient
    numeric = np.zeros_like(analytic)
    logits = policy.logits
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            original = logits[i, j]
            logits[i, j] = original + h
            plus = loss_gradient(batch, policy, config).loss
            logits[i, j] = original - h
            minus = loss_gradient(batch, policy, config).loss
            logits[i, j] = original
            numeric[i, j] = (plus - minus) / (2 * h)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)
