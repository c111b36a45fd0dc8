"""Curriculum training loop and gradient checking.

``train_modes`` trains one run per loss mode from the same policy, all
runs in lockstep, each into a new policy; ``train`` is the same loop with
one mode (K = 1). The caller's policy is only read. Stages run in
dataset order. The curriculum's pairs are tokenized up front, each
distinct text once. At the start of each stage each finesse run computes
its finesse variance once per unique prompt (from one temperature table),
every other run takes neutral 0.0 variances, and the stage's pairs are
encoded into transition indices once and scored under each run's frozen
reference: with reference refresh, the runs' tables as the stage starts,
else the initial policy's. Each epoch draws one permutation of the
stage's pairs for every run and plans every run's batches, with the
pairs' mode weights, in one call; each step then takes one plain
gradient-descent step on its batch for every run, on the rows the batch
visits, and writes its statistics into the plan's one table, from which
the epoch's log records are built when it ends. The permutations come
from one generator seeded with the config's seed, each finesse run's
samples from its own, seeded with [seed, 1]: identical inputs give
identical logs and parameters, and a run's are the same whichever
modes train beside it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .dataforge import CurriculumDataset, PreferencePair, SchemaError
from .fileio import check_kinds, check_value, json_lines, limited, write_atomic
from .losses import (
    LossConfig,
    LossExample,
    compute_finesse,
    encode_examples,
    encode_runs,
    loss_gradient,
    loss_steps,
    plan_runs,
)
from .policy import EOS, BigramPolicy, Vocabulary
from .textmetrics import tokenize


class TrainingError(RuntimeError):
    """Training cannot proceed (empty stage, non-finite loss, gradient or logits)."""


@dataclass
class TrainConfig:
    """One training run's settings: ``epochs_per_stage`` passes over each
    stage, gradient descent at ``learning_rate`` on batches of
    ``batch_size`` pairs, ``seed`` for the permutations and finesse
    samples, and the ``loss``. The frozen reference is the initial policy;
    with ``refresh_reference_per_stage`` it is instead the policy as each
    stage starts."""

    epochs_per_stage: int = limited((">=", 1), default=10)
    learning_rate: float = limited((">", 0), default=0.5)
    batch_size: int = limited((">=", 1), default=2)
    seed: int = limited((">=", 0), default=0)
    refresh_reference_per_stage: bool = True
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self) -> None:
        check_kinds(self)
        if not isinstance(self.loss, LossConfig):
            raise ValueError("loss must be a LossConfig, got %r" % (self.loss,))


@dataclass
class TrainStepRecord:
    """One step of one run, a train-log line's keys in order: the stage
    name, the epoch in the stage and the step in the run (both from 1),
    then, against the in-stage reference before the update, the batch's
    mean loss, mean raw margin beta * (r_w - r_l), accuracy (the share of
    pairs with r_w - r_l > ``losses.TIE_TOLERANCE``), mean weighted margin
    beta * S and gradient Frobenius norm."""

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
    """A run's train log: one ``TrainStepRecord`` per step, in step order."""

    records: list[TrainStepRecord] = field(default_factory=list)

    def save(self, path: str | Path) -> Path:
        """One JSON object per record, keys in field order: the line
        ``json.dumps(vars(record), ensure_ascii=False)``, byte for byte,
        formatted column by column and written line by line by
        ``fileio.json_lines``.
        """
        return write_atomic(path, json_lines(self.records))


def encode_pairs(pairs: Sequence[PreferencePair]) -> list[LossExample]:
    """Tokenize pair texts and append EOS to both responses.

    Each distinct text is tokenized once per call, through a text -> tokens
    table; every example gets its own token lists, none shared with
    another example. Missing actuality scores fall back to the neutral
    weights (s_w = 0, s_l = 1), i.e. plain unweighted behaviour.
    """
    tokens: dict[str, list[str]] = {}
    for pair in pairs:
        for text in (pair.prompt, pair.preferred, pair.rejected):
            if text not in tokens:
                tokens[text] = tokenize(text)
    return [
        LossExample(
            prompt=list(tokens[pair.prompt]),
            preferred=tokens[pair.preferred] + [EOS],
            rejected=tokens[pair.rejected] + [EOS],
            preferred_actuality=0.0 if pair.s_w is None else pair.s_w,
            rejected_actuality=1.0 if pair.s_l is None else pair.s_l,
        )
        for pair in pairs
    ]


def vocab_from_pairs(pairs: Sequence[PreferencePair]) -> Vocabulary:
    """The vocabulary of the pairs' texts, each distinct text tokenized once."""
    texts = {text for pair in pairs for text in (pair.prompt, pair.preferred, pair.rejected)}
    return Vocabulary.from_tokens(chain.from_iterable(map(tokenize, texts)))


def attach_finesse(
    examples: list[LossExample],
    policy: BigramPolicy,
    config: LossConfig,
    rng: np.random.Generator,
) -> None:
    """Fill effective_variance, one estimate per unique prompt.

    An estimate depends only on the prompt's start row, its last token
    (BOS for an empty prompt): the responses are drawn and scored from that
    row on. Prompts that share a start row still draw their own samples,
    so their multipliers scatter: in the seed-7 demo all 34 distinct
    prompts of a stage share one start row, and within one stage the
    multipliers span 10.7-19.7 (hin_dpo, stage 2), 2.42-15.98 (hin_dpo,
    stage 3) and 17.9-20.0 (dpo_fin, stage 3). All estimates come from one
    ``compute_finesse`` call, in first-appearance order, so the generator
    is consumed deterministically.
    """
    prompts = list(dict.fromkeys(tuple(e.prompt) for e in examples))
    estimates = compute_finesse(policy, prompts, config, rng)
    effective = {prompt: estimate.effective for prompt, estimate in zip(prompts, estimates)}
    for example in examples:
        example.effective_variance = effective[tuple(example.prompt)]


def _non_finite(stats: np.ndarray, gradient: np.ndarray, updated: np.ndarray) -> Iterator[tuple[int, str]]:
    """(run, value name) of each non-finite value of a step, from its
    (5, K) statistics row and its gradient and updated rows: runs in order
    and, within a run, its loss, gradient, updated logits, gradient norm,
    margin and weighted margin in that order. Every run visits the same
    number of rows, so run k's rows are the k-th of K equal blocks."""
    loss, margin, _, weighted_margin, grad_norm = stats
    runs = len(loss)
    for k, (run_gradient, run_logits) in enumerate(zip(np.split(gradient, runs), np.split(updated, runs))):
        for name, values in (
            ("loss", loss[k]), ("gradient", run_gradient), ("logits after the update", run_logits),
            ("gradient norm", grad_norm[k]), ("margin", margin[k]), ("weighted margin", weighted_margin[k]),
        ):
            if not np.isfinite(values).all():
                yield k, name


def train_modes(
    curriculum: CurriculumDataset,
    policy: BigramPolicy,
    config: TrainConfig,
    modes: Sequence[str],
) -> list[tuple[BigramPolicy, TrainLog]]:
    """Run the staged training loop once per loss mode, all K runs in
    lockstep; returns each run's (policy, log), in ``modes`` order.

    Run k trains ``config`` with its loss mode set to ``modes[k]``, from
    ``policy``'s logits, into a new policy: ``policy`` and its table are
    only read, so a frozen snapshot trains too. The runs' tables are
    stacked as one (K·V, V) table, run k's row r being row k·V + r, and
    run k's policy holds its block of it. Every run takes each epoch's one
    permutation; a finesse run draws its samples from its own generator,
    as the run alone does. ``encode_runs`` scores a stage's pairs once, as
    the stage starts, before any step of it, so with reference refresh it
    reads each run's reference straight from the live table; without, it
    reads one copy of the table made at entry. One ``encode_pairs`` call
    tokenizes the whole curriculum, each distinct text once, and each
    stage encodes its slice of the examples once, a run without finesse
    with neutral 0.0 variances; each epoch plans every run's batches in
    one ``plan_runs`` call and updates and checks its steps under one
    ``np.errstate``. Each step takes one ``loss_steps`` call and one update
    of the rows the batch visits, for every run at once: the step's copy
    of those rows is updated in place, checked, then written back. The
    step is checked by one sum of its updated rows and its row of the
    plan's statistics table, and entry by entry only when that sum is not
    finite: finite rows whose sum overflows still train.

    At the end of each epoch every run's ``TrainStepRecord``s for it are
    built from the plan's statistics table. Every pair of the curriculum
    is validated first: a pair that breaks the pair schema raises
    ``SchemaError`` naming its id before any run is set up. A step whose
    loss, gradient, updated logits, gradient norm or margins are not
    finite in any run raises, naming the first such run's mode when K > 1,
    before any run changes; no step of its epoch is logged.
    """
    if not curriculum.stages:
        raise TrainingError("curriculum has no stages")
    if isinstance(modes, str) or not modes:
        raise ValueError("train_modes needs a sequence of at least one mode, got %r" % (modes,))
    all_pairs = curriculum.all_pairs()
    for pair in all_pairs:
        try:
            pair.validate()
        except SchemaError as exc:
            raise SchemaError("pair %r: %s" % (pair.id, exc)) from exc
    all_examples = encode_pairs(all_pairs)
    configs = [replace(config.loss, mode=mode) for mode in modes]
    logits = np.tile(policy.logits, (len(configs), 1))
    policies = [copy.copy(policy) for _ in configs]
    for run, table in zip(policies, np.split(logits, len(configs))):
        run.logits = table
    order_rng = np.random.default_rng(config.seed)
    finesse_rngs = {k: np.random.default_rng([config.seed, 1]) for k, loss in enumerate(configs) if loss.uses_finesse()}
    reference = logits if config.refresh_reference_per_stage else logits.copy()
    logs = [TrainLog() for _ in configs]
    step = start = 0
    for stage_name, pairs in curriculum.stages:
        if not pairs:
            raise TrainingError("stage %r is empty" % stage_name)
        examples = all_examples[start : start + len(pairs)]
        start += len(pairs)
        variances = []
        for k, (run, loss) in enumerate(zip(policies, configs)):
            if k in finesse_rngs:
                attach_finesse(examples, run, loss, finesse_rngs[k])
                variances.append([example.effective_variance for example in examples])
            else:
                variances.append([0.0] * len(examples))
        encoded = encode_runs(examples, policy, reference, variances)
        for epoch in range(1, config.epochs_per_stage + 1):
            plan = plan_runs(encoded, order_rng.permutation(len(examples)), config.batch_size, configs)
            # An overflow shows as a non-finite value, which is rejected.
            with np.errstate(over="ignore", invalid="ignore"):
                for b in range(len(plan)):
                    updated, gradient = loss_steps(plan, b, logits)
                    updated -= config.learning_rate * gradient
                    # A finite sum means every updated logit and statistic is
                    # finite; only an infinite or NaN one is looked for entry by entry.
                    total = np.add.reduce(updated, axis=None) + np.add.reduce(plan.stats[b], axis=None)
                    if not math.isfinite(total):
                        for k, name in _non_finite(plan.stats[b], gradient, updated):
                            run = " in mode %r" % modes[k] if len(modes) > 1 else ""
                            where = "at stage %r epoch %d step %d" % (stage_name, epoch, step + b + 1)
                            raise TrainingError("non-finite %s%s %s" % (name, run, where))
                    logits[plan.rows_of(b)] = updated
            for log, stats in zip(logs, plan.stats.transpose(2, 0, 1).tolist()):
                log.records.extend(TrainStepRecord(stage_name, epoch, step + b, *values) for b, values in enumerate(stats, 1))
            step += len(plan)
    return list(zip(policies, logs))


def train(
    curriculum: CurriculumDataset,
    policy: BigramPolicy,
    config: TrainConfig,
) -> tuple[BigramPolicy, TrainLog]:
    """Run the staged training loop for ``config.loss.mode``: ``train_modes``
    with that one mode (K = 1). Returns a new policy and its log;
    ``policy`` is only read."""
    return train_modes(curriculum, policy, config, [config.loss.mode])[0]


def gradcheck(
    policy: BigramPolicy,
    examples: Sequence[LossExample],
    config: LossConfig,
    reference: BigramPolicy | None = None,
    h: float = 1e-5,
) -> float:
    """Compare the analytic gradient with central finite differences.

    The batch is encoded once, and every logit of a copy of the policy is
    perturbed by +/- h, so the caller's policy is never written and a
    frozen snapshot is checked too; each probe's loss, and the analytic
    gradient, come from ``loss_gradient`` on that copy. The returned error
    is the largest entrywise deviation, scaled by the largest gradient
    magnitude (which keeps untouched, exactly-zero entries from dominating
    the ratio). A step ``h`` that is not a finite number > 0 raises
    ValueError.
    """
    check_value("h", "float", h, (">", 0))
    examples = list(examples)
    if not examples:
        raise ValueError("gradcheck needs a non-empty batch")
    if reference is None:
        reference = policy.snapshot()
    encoded = encode_examples(examples, policy, reference)
    probe = policy.copy()
    logits = probe.logits
    step = loss_gradient(encoded, probe, config)
    analytic = np.zeros_like(logits)
    numeric = np.zeros_like(analytic)
    analytic[step.rows] = step.gradient
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            original = logits[i, j]
            logits[i, j] = original + h
            plus = loss_gradient(encoded, probe, config).loss
            logits[i, j] = original - h
            minus = loss_gradient(encoded, probe, config).loss
            logits[i, j] = original
            numeric[i, j] = (plus - minus) / (2 * h)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)
