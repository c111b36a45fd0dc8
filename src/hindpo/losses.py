"""Preference-loss core: scores, loss modes, finesse estimate, gradients.

Four loss modes share one code path, differing only in their weighting
coefficients:

  dpo       loss = softplus(-beta * (r_w - r_l))
  dpo_act   preferred side weighted by (1 + s_w), rejected by max(0.01, s_l)
  dpo_fin   margin scaled by 1 / (v_effective + epsilon), capped
  hin_dpo   both modifications combined

r_w / r_l are the log-probability ratios of the preferred / rejected
response between the trainable policy and a frozen reference. s_w / s_l
are factual-consistency (actuality) weights in [0, 1]. v_effective is the
finesse estimate: the variance of the policy's own high-temperature
response probabilities over its maximum 0.25, clamped to 1, computed
outside the loss so no gradient flows through it. With s_w = 0, s_l = 1
and v_effective + epsilon = 1 every mode collapses to plain DPO, bit for
bit.

The weighting and loss functions are elementwise (scalars in, scalars out;
per-pair arrays in, per-pair arrays out), so one formula serves a single
pair and a whole batch. The step works in count form: a bigram sequence's
log-probability and its gradient are linear in the sequence's transition
counts, so a batch needs one pass over all its transitions and no
per-pair loop. It also serves K training runs at once, one per loss mode,
in lockstep: the runs share one batch order, and their logit tables are
stacked as one (K·V, V) table, run k's row r being row k·V + r. Every
kernel works row by row, or sequence by sequence in transition order, so
each run's values are bit for bit those of the run alone. Only what
depends on the policies is computed per step; the rest is planned ahead,
at three levels:

- per stage, ``encode_runs`` turns the pairs into transition indices once
  and scores them under each run's frozen reference, as one
  ``EncodedPairs`` (``encode_examples`` for one run);
- per epoch, ``plan_runs`` plans the permuted pairs once, as one run: one
  gather of their transitions and one ``np.unique`` over the key
  batch * V + row for every batch's visited rows. Each per-transition
  array of the ``EpochPlan`` (each transition's row among its batch's
  visited rows, its flat entry local·V + col in the gathered rows and its
  sequence) and the visited rows themselves are laid out batch-major,
  run 0's part of a batch, then run 1's and so on, by one scatter per
  array, so a batch is one contiguous slice of each. Beside them the plan
  holds every run's mode weights, the signed side weights (-m_w, +m_l),
  beta * mult and where each run's rows start in each batch, and one
  (batches, 5, K) table for the steps' statistics;
- per step, ``loss_steps`` takes the plan and a batch index, gathers the
  visited rows once, shifts each by its maximum, read at its argmax
  rather than by a reduction, reads their log-softmax only at the batch's
  transitions, through their flat entries, and computes every run's
  loss, its gradient on those rows (built in place of their softmax) and
  its norm, and the batch statistics, written into the batch's row of the
  plan's statistics table; it returns the gathered rows too, for the
  caller to update in place.

``loss_gradient`` is the one-run view: it takes a whole ``EncodedPairs``,
plans it as one batch under one config and returns the run's step.

``compute_finesse`` draws all its samples from one temperature table, in
one ``draw`` call for all its prompts, which takes the uniforms from the
generator in blocks and leaves it where one ``draw`` per prompt, and one
``rng.random()`` per drawn token, would, and scores them all by one
gather of their transitions' log-probabilities and one ``np.bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .fileio import check_kinds, limited
from .policy import EOS, BigramPolicy, Vocabulary, draw, sampling_tables, transition_grad
from .welford import Welford

MODES = ("dpo", "dpo_act", "dpo_fin", "hin_dpo")

# Rejected-side weight never drops below this, so weak responses are
# penalized without being erased from the objective.
REJECTED_WEIGHT_FLOOR = 0.01

# Maximum sample variance attainable by values confined to [0, 1].
VARIANCE_NORMALIZER = 0.25

# A pair counts towards accuracy only when r_w - r_l exceeds this. Log-ratios
# that are equal in exact arithmetic (say, the same transitions summed in
# another order) differ by summation-order noise of about 1e-15, which must
# read as a tie, not as a preference.
TIE_TOLERANCE = 1e-12

_ACTUALITY_MODES = frozenset({"dpo_act", "hin_dpo"})
_FINESSE_MODES = frozenset({"dpo_fin", "hin_dpo"})

@dataclass
class LossConfig:
    """Knobs for the preference loss and its finesse sampling, each checked by kind and limits when built."""

    beta: float = limited((">", 0), default=0.6)
    epsilon: float = limited((">", 0), default=0.05)
    mode: str = limited(("one of", MODES), default="hin_dpo")
    finesse_samples: int = limited((">=", 2), default=5)
    finesse_temperature: float = limited((">", 0), default=0.9)
    finesse_max_len: int = limited((">=", 1), default=16)
    scale_cap: float = limited((">", 0), default=20.0)

    def __post_init__(self) -> None:
        check_kinds(self)

    def uses_actuality(self) -> bool:
        return self.mode in _ACTUALITY_MODES

    def uses_finesse(self) -> bool:
        return self.mode in _FINESSE_MODES


@dataclass(frozen=True)
class LogRatios:
    """Policy-vs-reference log-probability ratios of one preference pair, or
    per-pair arrays of them for a batch."""

    preferred: float | np.ndarray
    rejected: float | np.ndarray


@dataclass(frozen=True)
class FinesseEstimate:
    """Raw response-probability variance and its effective value,
    min(variance / 0.25, 1)."""

    variance: float
    effective: float


@dataclass(frozen=True)
class LossStep:
    """One batch's loss, gradient and preference statistics.

    ``rows`` holds the sorted indices of the policy rows the batch visits
    and ``gradient`` the (len(rows), V) block of the loss gradient on those
    rows; every other row's gradient is zero. The other fields come from
    the same per-pair log-ratios r_w / r_l, taken against the reference
    before any update. ``margin`` is the mean raw
    beta * (r_w - r_l); ``weighted_margin`` is the mean sigmoid argument
    beta * S after the mode's weights, the separation the loss drives;
    ``accuracy`` is the fraction of pairs with r_w - r_l > TIE_TOLERANCE:
    a tie, including one hidden by rounding noise, does not count as
    preferred.
    """

    rows: np.ndarray
    gradient: np.ndarray
    loss: float
    margin: float
    weighted_margin: float
    accuracy: float


@dataclass
class LossExample:
    """One tokenized preference pair with its loss weights.

    Responses must end with the EOS token. The defaults are neutral: with
    preferred_actuality 0 and rejected_actuality 1 the actuality weights
    are exactly 1, and effective_variance only matters in finesse modes.
    """

    prompt: list[str]
    preferred: list[str]
    rejected: list[str]
    preferred_actuality: float = 0.0
    rejected_actuality: float = 1.0
    effective_variance: float = field(default=0.0)


def _weights(preferred_actuality, rejected_actuality, effective_variance, config: LossConfig):
    """(m_w, m_l, mult): the mode's preferred, rejected and finesse weights,
    mult being the low-variance boost min(1 / (v_effective + epsilon), scale_cap)."""
    if config.uses_actuality():
        m_w = 1.0 + preferred_actuality
        m_l = np.maximum(REJECTED_WEIGHT_FLOOR, rejected_actuality)
    else:
        m_w, m_l = 1.0, 1.0
    if config.uses_finesse():
        mult = np.minimum(1.0 / (effective_variance + config.epsilon), config.scale_cap)
    else:
        mult = 1.0
    return m_w, m_l, mult


def preference_score(
    ratios: LogRatios,
    preferred_actuality: float | np.ndarray,
    rejected_actuality: float | np.ndarray,
    effective_variance: float | np.ndarray,
    config: LossConfig,
) -> float | np.ndarray:
    """Sigmoid argument of the loss, before the beta factor.

    dpo: r_w - r_l. dpo_act: (1 + s_w) r_w - max(0.01, s_l) r_l.
    dpo_fin: (r_w - r_l) scaled by the capped variance multiplier.
    hin_dpo: actuality weighting and variance scaling combined.
    """
    m_w, m_l, mult = _weights(preferred_actuality, rejected_actuality, effective_variance, config)
    return (m_w * ratios.preferred - m_l * ratios.rejected) * mult


def hin_dpo_loss(score: float | np.ndarray, beta: float) -> float | np.ndarray:
    """softplus(-beta * score): the stable form of -log(sigmoid(beta * score)).

    With score = r_w - r_l this is the plain DPO loss.
    """
    return np.logaddexp(0.0, -beta * score)


def compute_finesse(
    policy: BigramPolicy,
    prompts: Sequence[Sequence[str]],
    config: LossConfig,
    rng: np.random.Generator,
) -> list[FinesseEstimate]:
    """Variance of the policy's own response probabilities, one estimate
    per prompt, in order.

    Draws ``finesse_samples`` responses per prompt at
    ``finesse_temperature`` and scores each by its per-token geometric-mean
    probability under the temperature-scaled policy (a scalar in [0, 1],
    well defined even when the samples differ in length). The running
    sample variance of those scalars is the raw estimate; the effective
    value divides it by 0.25 (the maximum variance of [0, 1] values) and
    clamps to [0, 1]. The temperature table is built once per call, and
    every prompt's samples come from one ``draw`` of all the prompts' start
    rows, each repeated ``finesse_samples`` times, which consumes the
    generator as one ``draw`` per prompt would: one ``rng.random()`` per
    drawn token. Every sample is scored by one gather of its transitions'
    log-probabilities and one ``np.bincount``, which adds each path's terms
    in drawn order. A prompt with an out-of-vocabulary token raises before
    any sample is drawn.
    """
    log_probs, cdf = sampling_tables(policy.logits, config.finesse_temperature)
    samples = config.finesse_samples
    starts = np.repeat(np.array([policy.vocab.start(prompt) for prompt in prompts], dtype=np.intp), samples)
    paths = draw(cdf, starts.tolist(), policy.vocab.index(EOS), config.finesse_max_len, rng)
    lengths = np.fromiter(map(len, paths), dtype=np.intp, count=len(paths))
    tokens = np.fromiter(chain.from_iterable(paths), dtype=np.intp, count=lengths.sum())
    # Each token's previous one: its path's start row for the first.
    previous = np.empty_like(tokens)
    previous[1:] = tokens[:-1]
    previous[np.cumsum(lengths) - lengths] = starts
    owner = np.repeat(np.arange(len(paths)), lengths)
    terms = log_probs.reshape(-1).take(previous * len(log_probs) + tokens)
    path_log_probs = np.bincount(owner, terms, minlength=len(paths))
    scores = np.exp(path_log_probs / lengths).tolist()
    estimates = []
    for i in range(len(prompts)):
        variance = Welford().extend(scores[i * samples : (i + 1) * samples]).variance
        estimates.append(FinesseEstimate(variance=variance, effective=min(variance / VARIANCE_NORMALIZER, 1.0)))
    return estimates


@dataclass(frozen=True, eq=False)
class EncodedPairs:
    """Preference pairs as transition index arrays, scored against the
    frozen references of K runs once; ``plan_runs`` cuts them into the
    batches of an epoch.

    Sequence 2i is pair i's preferred response and 2i + 1 its rejected
    one. ``rows``/``cols`` hold every transition of every sequence, in
    sequence order, and ``lengths`` the transition count of each sequence.
    ``reference`` holds the sequences' reference log-probabilities under
    each run's reference as a (K, n, 2) table; ``factors`` holds each
    pair's (s_w, s_l, v_effective) per run as a (K, n, 3) table.
    """

    vocab: Vocabulary
    rows: np.ndarray
    cols: np.ndarray
    lengths: np.ndarray
    reference: np.ndarray
    factors: np.ndarray

    def __len__(self) -> int:
        return self.reference.shape[1]


# The rows of an ``EpochPlan``'s statistics table: a train-log line's values, in its order.
STATS = ("loss", "margin", "accuracy", "weighted_margin", "grad_norm")


@dataclass(frozen=True, eq=False)
class EpochPlan:
    """One epoch's train steps for K runs that share one batch order,
    planned before the steps: everything a step needs that does not
    depend on the policies, and the table the steps write their
    statistics to.

    The runs' logit tables are stacked as one (K·V, V) table, run k's row r
    being row k·V + r. Every run takes the same m pairs per batch, so run
    k's part of a batch is run 0's offset: its visited rows by k·V, its
    transitions' row indices by k times the rows a run visits and their
    sequences by k·2m. Batch b visits the sorted stacked rows
    ``rows[row_bounds[b]:row_bounds[b + 1]]``, run-major, run k's block of
    them starting at ``blocks[b, k]``, and its transitions are
    ``step_bounds[b]`` to ``step_bounds[b + 1]`` of the per-transition
    arrays, also run-major: ``local``, each transition's row as an index
    into its batch's rows, ``flat``, its entry local·V + col in the
    gathered (rows, V) block, read row-major, and ``owner``, its sequence:
    k·2m + 2i for pair i's preferred response in run k, one more for its
    rejected one. The per-pair tables hold the epoch's pairs in order,
    batch b taking ``batch_size`` of them from b·batch_size: ``reference``
    their (K, n, 2) reference log-probabilities, ``weights`` the mode's
    preferred / rejected weights (m_w, m_l) under each run's config,
    ``signed`` the same with the preferred side negated (-m_w, +m_l),
    ``mult`` the (K, n) finesse multipliers and ``beta_mult`` the products
    beta * mult; ``beta`` is the (K, 1) column of the runs' betas.
    ``loss_steps`` writes batch b's per-run statistics, named by
    ``STATS``, into ``stats[b]``.
    """

    rows: np.ndarray
    row_bounds: list[int]
    blocks: np.ndarray
    local: np.ndarray
    flat: np.ndarray
    owner: np.ndarray
    step_bounds: list[int]
    batch_size: int
    reference: np.ndarray
    weights: np.ndarray
    signed: np.ndarray
    mult: np.ndarray
    beta: np.ndarray
    beta_mult: np.ndarray
    stats: np.ndarray

    def __len__(self) -> int:
        """Batches in the epoch."""
        return len(self.stats)

    def rows_of(self, b: int) -> np.ndarray:
        """The sorted stacked rows batch b visits, run-major."""
        return self.rows[self.row_bounds[b] : self.row_bounds[b + 1]]


def plan_runs(
    encoded: EncodedPairs,
    order: Sequence[int] | np.ndarray,
    batch_size: int,
    configs: Sequence[LossConfig],
) -> EpochPlan:
    """One epoch of K runs in one batch order: every run takes the pairs
    at the positions ``order`` (repeats allowed), cut every ``batch_size``
    pairs, the last batch holding the rest; run k weighs them under
    ``configs[k]`` and its reference scores in ``encoded``.

    The epoch is planned once, as one run: one gather takes its
    transitions in batch order, and one ``np.unique`` over the key
    batch * V + row gives every batch's sorted visited rows and each
    transition's index into them. Run k's copy of that plan is offset on a
    leading K axis, and one scatter per array lays the copies out
    batch-major, run by run within a batch. The loss weights are computed
    once per run into one (K, n, 3) table of m_w, m_l and mult, with its
    signed weights and beta * mult beside it. beta * mult is taken with
    overflow ignored: a product that overflows is infinite, so the step's
    gradient is non-finite, which the trainer rejects.
    """
    order = np.asarray(order, dtype=np.intp)
    count, n = len(configs), len(encoded)
    if encoded.reference.shape[0] != count:
        raise ValueError("the encoding holds %d runs, got %d configs" % (encoded.reference.shape[0], count))
    if order.ndim != 1 or not len(order) or batch_size < 1:
        raise ValueError("an epoch takes one non-empty order and batch_size >= 1, got shape %s and %d" % (order.shape, batch_size))
    outside = (order < 0) | (order >= n)
    if outside.any():
        raise ValueError("position %d is outside the %d encoded pairs" % (order[outside.argmax()], n))
    seqs = (2 * order[:, None] + np.arange(2)).ravel()
    lengths = encoded.lengths[seqs]
    starts = (np.cumsum(encoded.lengths) - encoded.lengths)[seqs]  # where each sequence begins in the encoding
    ends = np.cumsum(lengths)  # where it ends in the epoch
    # Epoch transition t of sequence s is transition starts[s] + t - (ends[s] - lengths[s]) of the encoding.
    picked = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
    batch_of, owner = np.divmod(np.repeat(np.arange(2 * len(order)), lengths), 2 * batch_size)
    vocab_size, batches = len(encoded.vocab), -(-len(order) // batch_size)
    keys, inverse = np.unique(batch_of * vocab_size + encoded.rows[picked], return_inverse=True)
    key_bounds = np.searchsorted(keys, np.arange(batches + 1) * vocab_size)
    step_bounds = np.searchsorted(batch_of, np.arange(batches + 1))
    visited, steps = np.diff(key_bounds), np.diff(step_bounds)
    pairs = np.minimum(batch_size, len(order) - batch_size * np.arange(batches))
    # Run k's copy of the plan, on a leading axis of K, laid out batch-major:
    # an entry of it moves past the other K - 1 copies of the earlier
    # batches and the k earlier copies of its own batch.
    run = np.arange(count)[:, None]
    key_batch = keys // vocab_size
    at = np.arange(len(keys)) + (count - 1) * key_bounds[key_batch] + run * visited[key_batch]
    rows = _scatter(keys % vocab_size + run * vocab_size, at)
    local = inverse - key_bounds[batch_of] + run * visited[batch_of]
    at = np.arange(len(picked)) + (count - 1) * step_bounds[batch_of] + run * steps[batch_of]
    flat = _scatter(local * vocab_size + encoded.cols[picked], at)
    local, owner = _scatter(local, at), _scatter(owner + run * (2 * pairs)[batch_of], at)
    table = np.empty((count, len(order), 3))  # m_w, m_l and mult per run and pair
    for k, config in enumerate(configs):
        s_w, s_l, v = encoded.factors[k, order].T
        table[k, :, 0], table[k, :, 1], table[k, :, 2] = _weights(s_w, s_l, v, config)
    beta = np.array([[config.beta] for config in configs])
    with np.errstate(over="ignore", invalid="ignore"):
        beta_mult = beta * table[:, :, 2]
    return EpochPlan(
        rows, (count * key_bounds).tolist(), run.T * visited[:, None], local, flat, owner,
        (count * step_bounds).tolist(), batch_size, encoded.reference[:, order], table[:, :, :2],
        table[:, :, :2] * (-1.0, 1.0), table[:, :, 2], beta, beta_mult, np.empty((batches, len(STATS), count)),
    )


def _scatter(values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """One array holding each of ``values`` at its index in ``at``."""
    out = np.empty(values.size, dtype=values.dtype)
    out[at] = values
    return out


def _row_max(x: np.ndarray) -> np.ndarray:
    """Each row's maximum of the 2-D ``x``, as a (rows, 1) column: one flat
    ``take`` at ``x.argmax(axis=1)``, cheaper than the axis-1 reduction.
    It equals ``np.maximum.reduce(x, axis=1, keepdims=True)``, a row
    holding NaN giving NaN as there. Only where +0.0 and -0.0 tie for a
    row's maximum may its sign differ, and then the row's softmax total is
    at least 2, so no log-probability, gradient or statistic moves."""
    return x.reshape(-1).take(x.argmax(axis=1) + np.arange(0, x.size, x.shape[1]))[:, None]


def encode_runs(
    examples: Sequence[LossExample],
    policy: BigramPolicy,
    references: np.ndarray,
    variances: Sequence[Sequence[float]],
) -> EncodedPairs:
    """Encode pairs into transition indices once and score them for K runs,
    as one ``EncodedPairs``.

    ``references`` stacks the runs' reference logit tables as one (K·V, V)
    table, run k's in rows k·V to (k + 1)·V - 1, and ``variances[k]``
    holds run k's per-pair effective variances. The rows the stage's
    transitions visit are gathered once, as ``loss_steps`` gathers a
    batch's, and a transition's reference log-probability is
    ``normalise``'s log-softmax entry, bit for bit, read at the transition
    only: its row's entry shifted by the row's maximum (``_row_max``),
    minus the log of the row's total. Every run's sequence
    reference log-probabilities come from one ``np.bincount`` over all
    runs' transitions, which adds each sequence's terms in order. The
    sequences' token indices are read by one ``np.fromiter``, each
    prompt's start row encoded once per pair.
    """
    if not examples:
        raise ValueError("no pairs to encode")
    vocab = policy.vocab
    paths = []  # per sequence: its prompt's start row, then its tokens
    for e in examples:
        start = vocab.start(e.prompt)
        paths.append([start, *vocab.encode(e.preferred)])
        paths.append([start, *vocab.encode(e.rejected)])
    sizes = np.fromiter(map(len, paths), dtype=np.intp, count=len(paths))
    path = np.fromiter(chain.from_iterable(paths), dtype=np.intp, count=sizes.sum())
    ends = np.cumsum(sizes)
    rows, cols = np.delete(path, ends - 1), np.delete(path, ends - sizes)
    lengths = sizes - 1
    count, sequences = len(variances), len(lengths)
    stacked = (rows + len(policy.vocab) * np.arange(count)[:, None]).ravel()
    seen = np.zeros(len(references), dtype=bool)
    seen[stacked] = True
    gathered = references[seen]  # the visited rows, in order
    local = (np.cumsum(seen) - 1)[stacked]  # each transition's row among them
    shifted = gathered - _row_max(gathered)
    log_totals = np.log(np.add.reduce(np.exp(shifted), axis=1))
    terms = shifted[local, np.tile(cols, count)] - log_totals[local]
    owner = np.repeat(np.arange(count * sequences), np.tile(lengths, count))
    sequence_log_probs = np.bincount(owner, terms, minlength=count * sequences).reshape(count, -1, 2)
    actuality = [(e.preferred_actuality, e.rejected_actuality) for e in examples]
    factors = np.array([np.column_stack([actuality, v]) for v in variances])
    return EncodedPairs(policy.vocab, rows, cols, lengths, sequence_log_probs, factors)


def encode_examples(
    examples: Sequence[LossExample], policy: BigramPolicy, reference: BigramPolicy
) -> EncodedPairs:
    """Encode pairs into transition indices and score them under
    ``reference``, with the examples' effective variances: ``encode_runs``
    with one run. The reference must share the policy's vocabulary."""
    if reference.vocab != policy.vocab:
        raise ValueError("policy and reference vocabularies differ")
    return encode_runs(examples, policy, reference.logits, [[e.effective_variance for e in examples]])


def loss_steps(plan: EpochPlan, b: int, logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch b of ``plan``: every run's mean batch loss, its analytic
    gradient w.r.t. the stacked (K·V, V) ``logits`` on the rows the batch
    visits, and the batch's preference statistics, in count form. Returns
    (visited, gradient): a fresh copy of the visited rows of ``logits``,
    for the caller to update in place and write back to
    ``plan.rows_of(b)``, and the (len(rows), V) block of every run's loss
    gradient on them; every other row's gradient is zero. Each run's
    loss, raw margin, accuracy, weighted margin and gradient norm go into
    column k of ``plan.stats[b]``, row by row in ``STATS`` order, each as
    ``LossStep`` defines it, the gradient norm being the Frobenius norm
    over the run's rows.

    The visited rows are gathered once, by ``take``; ``logits`` is never
    written. Each row is shifted by its maximum, read at its argmax by
    ``_row_max``, into one buffer, which is then exponentiated in place,
    and a transition's log-probability is its shifted entry, read through
    the planned flat entries before the exponential, minus the log of its
    row's total: ``normalise``'s value, bit for bit, with no full
    log-softmax table. One ``np.bincount`` over
    the batch's transitions gives every sequence's policy log-probability,
    hence all r_w / r_l against the planned reference scores; the losses,
    the margins beta * (r_w - r_l), the accuracies and u = beta * S are
    written in place into one (4, K, m) per-pair table, and each run's
    mean is taken over its own m pairs as ``np.add.reduce(x) / m`` (how
    ``np.mean`` sums), in one reduction over that table. With coeff =
    (beta * mult) * (1 - sigma(u)), beta * mult planned, each preferred
    transition weighs -coeff * m_w and each rejected one +coeff * m_l (the
    planned signed weights) in one ``transition_grad`` call over the
    visited rows, which writes the gradient block on those rows over the
    softmax buffer, scattering the counts through the flat entries, then
    divided by m in place. Each run's gradient norm takes the squares,
    sums them per row, then sums the row sums over the run's block of
    rows, from its planned start, with ``np.add.reduceat``: one fixed
    order, whatever the BLAS thread count. Every kernel works row by row,
    or sequence by sequence in transition order, so each run's values are
    bit for bit those of the run planned alone. The finesse variance is a
    constant computed outside this function; no gradient flows through
    it.
    """
    steps = slice(*plan.step_bounds[b : b + 2])
    local, flat, owner = plan.local[steps], plan.flat[steps], plan.owner[steps]
    pairs = slice(b * plan.batch_size, (b + 1) * plan.batch_size)
    reference = plan.reference[:, pairs]
    runs, m = reference.shape[:2]
    visited = logits.take(plan.rows_of(b), axis=0)
    probs = visited - _row_max(visited)
    entries = probs.reshape(-1)  # a view: the block's entries, row-major
    shifted = entries.take(flat)
    np.exp(probs, out=probs)
    total = np.add.reduce(probs, axis=1, keepdims=True)
    # normalise's log-softmax entry (x - max) - log(total), at the transitions only.
    terms = shifted - np.log(total).take(local)
    probs /= total
    sequence_log_probs = np.bincount(owner, terms, minlength=2 * runs * m)
    ratios = sequence_log_probs.reshape(runs, m, 2) - reference
    weighted = plan.weights[:, pairs] * ratios  # m_w * r_w, m_l * r_l
    score = (weighted[:, :, 0] - weighted[:, :, 1]) * plan.mult[:, pairs]
    diff = ratios[:, :, 0] - ratios[:, :, 1]
    stats = plan.stats[b]
    per_pair = np.empty((4, runs, m))  # loss, margin, accuracy and u = beta * S per run and pair
    # An overflow shows as a non-finite value, which the trainer rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.multiply(plan.beta, score, out=per_pair[3])
        np.logaddexp(0.0, -u, out=per_pair[0])  # hin_dpo_loss(score, beta)
        np.multiply(plan.beta, diff, out=per_pair[1])
        np.greater(diff, TIE_TOLERANCE, out=per_pair[2])
        np.divide(np.add.reduce(per_pair, axis=2), m, out=stats[:4])
        coeff = plan.beta_mult[:, pairs] / (1.0 + np.exp(u))  # beta * mult * (1 - sigma(u))
        side = (coeff[:, :, None] * plan.signed[:, pairs]).ravel()  # -m_w, +m_l
        gradient = transition_grad(probs, local, flat, side.take(owner))
        gradient /= m
        row_norms = np.add.reduce(gradient * gradient, axis=1)
        np.sqrt(np.add.reduceat(row_norms, plan.blocks[b]), out=stats[4])
    return visited, gradient


def loss_gradient(encoded: EncodedPairs, policy: BigramPolicy, config: LossConfig) -> LossStep:
    """Mean loss of the encoded pairs under ``config``, its analytic
    gradient w.r.t. the policy logits on the rows the pairs visit, and
    their preference statistics: the pairs planned as one batch in encoding
    order, stepped by ``loss_steps`` as one run. A planned ``EpochPlan`` is
    stepped by ``loss_steps`` itself."""
    if not isinstance(encoded, EncodedPairs):
        raise ValueError("loss_gradient takes EncodedPairs, got %s; step a planned EpochPlan with loss_steps" % type(encoded).__name__)
    if encoded.vocab != policy.vocab:
        raise ValueError("pairs were encoded for another vocabulary")
    plan = plan_runs(encoded, np.arange(len(encoded)), len(encoded), [config])
    _, gradient = loss_steps(plan, 0, policy.logits)
    loss, margin, accuracy, weighted_margin, _ = plan.stats[0, :, 0].tolist()
    return LossStep(plan.rows, gradient, loss, margin, weighted_margin, accuracy)
