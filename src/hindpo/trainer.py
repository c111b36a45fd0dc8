"""Curriculum training loop and gradient checking.

Stages run in dataset order. At the start of each stage the finesse
variance is computed once per unique (prompt, preferred) pair (finesse
modes only); within a stage the policy takes plain gradient-descent steps
on shuffled batches; at the end of a stage the frozen reference is
optionally refreshed to the current policy. Everything is driven by one
seeded generator, so identical inputs give identical logs and parameters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataforge import CurriculumDataset, PreferencePair
from .losses import LossConfig, LossExample, compute_finesse, loss_gradient
from .policy import EOS, BigramPolicy, Vocabulary
from .textmetrics import tokenize

# Default learning rate is sized for large models; the toy preset is what
# actually moves a bigram table in 10 epochs.
TOY_LEARNING_RATE = 0.5


class TrainingError(RuntimeError):
    """Training cannot proceed (empty stage, non-finite loss, gradient or logits)."""


@dataclass
class TrainConfig:
    epochs_per_stage: int = 10
    learning_rate: float = 1e-4
    batch_size: int = 2
    seed: int = 0
    refresh_reference_per_stage: bool = True
    loss: LossConfig = field(default_factory=LossConfig)
    checkpoint_every: int | None = None
    checkpoint_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.epochs_per_stage < 1:
            raise ValueError("epochs_per_stage must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 when set")


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
        path = Path(path)
        path.write_text(
            "".join(json.dumps(asdict(r), ensure_ascii=False) + "\n" for r in self.records),
            encoding="utf-8",
        )
        return path


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
    """Fill effective_variance, one estimate per unique (prompt, preferred).

    Estimates are computed in first-appearance order so the generator is
    consumed deterministically.
    """
    estimates: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = {}
    for example in examples:
        key = (tuple(example.prompt), tuple(example.preferred))
        if key not in estimates:
            estimates[key] = compute_finesse(policy, example.prompt, config, rng).effective
        example.effective_variance = estimates[key]


def train(
    curriculum: CurriculumDataset,
    policy: BigramPolicy,
    config: TrainConfig,
) -> tuple[BigramPolicy, TrainLog]:
    """Run the staged training loop; mutates and returns the policy.

    Per-step records carry the batch loss, the mean raw margin
    beta * (r_w - r_l), the batch preference accuracy, the mean weighted
    margin beta * S and the gradient's Frobenius norm, all measured against
    the in-stage reference before the update is applied. A step whose loss,
    gradient or updated logits are not finite raises before the policy
    changes, is logged or is checkpointed.
    """
    if not curriculum.stages:
        raise TrainingError("curriculum has no stages")
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
        for epoch in range(1, config.epochs_per_stage + 1):
            order = rng.permutation(len(examples))
            for start in range(0, len(order), config.batch_size):
                batch = [examples[i] for i in order[start : start + config.batch_size]]
                result = loss_gradient(batch, policy, reference, config.loss)
                where = "at stage %r epoch %d step %d" % (stage_name, epoch, step + 1)
                if not np.isfinite(result.loss):
                    raise TrainingError("non-finite loss " + where)
                if not np.isfinite(result.gradient).all():
                    raise TrainingError("non-finite gradient " + where)
                with np.errstate(over="ignore"):
                    updated = policy.logits - config.learning_rate * result.gradient
                if not np.isfinite(updated).all():
                    raise TrainingError("non-finite logits after the update " + where)
                policy.logits = updated
                step += 1
                log.records.append(
                    TrainStepRecord(
                        stage_name, epoch, step, result.loss, result.margin, result.accuracy,
                        result.weighted_margin, float(np.linalg.norm(result.gradient)),
                    )
                )
                if config.checkpoint_every and step % config.checkpoint_every == 0:
                    directory = Path(config.checkpoint_dir or ".")
                    directory.mkdir(parents=True, exist_ok=True)
                    policy.save(directory / ("step_%06d.json" % step))
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

    Every logit is perturbed by +/- h. The returned error is the largest
    entrywise deviation, scaled by the largest gradient magnitude (which
    keeps untouched, exactly-zero entries from dominating the ratio).
    """
    examples = list(examples)
    if not examples:
        raise ValueError("gradcheck needs a non-empty batch")
    if reference is None:
        reference = policy.snapshot()
    analytic = loss_gradient(examples, policy, reference, config).gradient
    numeric = np.zeros_like(analytic)
    logits = policy.logits
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            original = logits[i, j]
            logits[i, j] = original + h
            plus = loss_gradient(examples, policy, reference, config).loss
            logits[i, j] = original - h
            minus = loss_gradient(examples, policy, reference, config).loss
            logits[i, j] = original
            numeric[i, j] = (plus - minus) / (2 * h)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)
