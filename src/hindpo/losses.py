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
finesse estimate: normalized variance of the policy's own high-temperature
response probabilities, computed outside the loss so no gradient flows
through it. With s_w = 0, s_l = 1 and v_effective + epsilon = 1 every mode
collapses to plain DPO, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .policy import BigramPolicy, log_softmax, softmax, transition_grad, transition_log_prob
from .welford import Welford

MODES = ("dpo", "dpo_act", "dpo_fin", "hin_dpo")

# Rejected-side weight never drops below this, so weak responses are
# penalized without being erased from the objective.
REJECTED_WEIGHT_FLOOR = 0.01

# Maximum sample variance attainable by values confined to [0, 1].
VARIANCE_NORMALIZER = 0.25

_ACTUALITY_MODES = frozenset({"dpo_act", "hin_dpo"})
_FINESSE_MODES = frozenset({"dpo_fin", "hin_dpo"})


@dataclass
class LossConfig:
    """Knobs for the preference loss and its finesse sampling."""

    beta: float = 0.6
    epsilon: float = 0.05
    mode: str = "hin_dpo"
    finesse_samples: int = 5
    finesse_temperature: float = 0.9
    finesse_max_len: int = 16
    scale_cap: float = 20.0
    normalize_variance: bool = True

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be > 0, got %r" % self.beta)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0, got %r" % self.epsilon)
        if self.scale_cap <= 0:
            raise ValueError("scale_cap must be > 0, got %r" % self.scale_cap)
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s, got %r" % (", ".join(MODES), self.mode))
        if self.finesse_samples < 2:
            raise ValueError("finesse_samples must be >= 2, got %d" % self.finesse_samples)
        if self.finesse_temperature <= 0:
            raise ValueError("finesse_temperature must be > 0")
        if self.finesse_max_len < 1:
            raise ValueError("finesse_max_len must be >= 1")

    def uses_actuality(self) -> bool:
        return self.mode in _ACTUALITY_MODES

    def uses_finesse(self) -> bool:
        return self.mode in _FINESSE_MODES


@dataclass(frozen=True)
class LogRatios:
    """Policy-vs-reference log-probability ratios for one preference pair."""

    preferred: float
    rejected: float


@dataclass(frozen=True)
class FinesseEstimate:
    """Raw and effective (normalized) response-probability variance."""

    variance: float
    effective: float


@dataclass(frozen=True)
class LossStep:
    """One batch's loss, gradient and preference statistics.

    Every field comes from the same per-pair log-ratios r_w / r_l, taken
    against the reference before any update. ``margin`` is the mean raw
    beta * (r_w - r_l); ``weighted_margin`` is the mean sigmoid argument
    beta * S after the mode's weights, the separation the loss drives;
    ``accuracy`` is the fraction of pairs with r_w > r_l.
    """

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


def scale_multiplier(effective_variance: float, config: LossConfig) -> float:
    """min(1 / (v_effective + epsilon), scale_cap); the low-variance boost."""
    return min(1.0 / (effective_variance + config.epsilon), config.scale_cap)


def _weights(
    preferred_actuality: float,
    rejected_actuality: float,
    effective_variance: float,
    config: LossConfig,
) -> tuple[float, float, float]:
    if config.uses_actuality():
        m_w = 1.0 + preferred_actuality
        m_l = max(REJECTED_WEIGHT_FLOOR, rejected_actuality)
    else:
        m_w, m_l = 1.0, 1.0
    mult = scale_multiplier(effective_variance, config) if config.uses_finesse() else 1.0
    return m_w, m_l, mult


def preference_score(
    ratios: LogRatios,
    preferred_actuality: float,
    rejected_actuality: float,
    effective_variance: float,
    config: LossConfig,
) -> float:
    """Sigmoid argument of the loss, before the beta factor.

    dpo: r_w - r_l. dpo_act: (1 + s_w) r_w - max(0.01, s_l) r_l.
    dpo_fin: (r_w - r_l) scaled by the capped variance multiplier.
    hin_dpo: actuality weighting and variance scaling combined.
    """
    m_w, m_l, mult = _weights(preferred_actuality, rejected_actuality, effective_variance, config)
    return (m_w * ratios.preferred - m_l * ratios.rejected) * mult


def hin_dpo_loss(score: float, beta: float) -> float:
    """softplus(-beta * score): the stable form of -log(sigmoid(beta * score)).

    With score = r_w - r_l this is the plain DPO loss.
    """
    return float(np.logaddexp(0.0, -beta * score))


def compute_finesse(
    policy: BigramPolicy,
    prompt: list[str],
    config: LossConfig,
    rng: np.random.Generator,
) -> FinesseEstimate:
    """Variance of the policy's own response probabilities for a prompt.

    Draws ``finesse_samples`` responses at ``finesse_temperature`` and
    scores each by its per-token geometric-mean probability under the
    temperature-scaled policy (a scalar in [0, 1], well defined even when
    the samples differ in length). The running sample variance of those
    scalars is the raw estimate; the effective value divides by 0.25 (the
    maximum variance of [0, 1] values) and clamps to [0, 1] when
    ``normalize_variance`` is on. A prompt with no valid continuation
    (out-of-vocabulary token) raises.
    """
    scaled = log_softmax(policy.logits / config.finesse_temperature)
    stats = Welford()
    for _ in range(config.finesse_samples):
        response = policy.sample_response(
            prompt, config.finesse_temperature, config.finesse_max_len, rng
        )
        log_prob = transition_log_prob(scaled, policy.transitions(prompt, response))
        stats.update(float(np.exp(log_prob / len(response))))
    variance = stats.variance
    if config.normalize_variance:
        effective = min(variance / VARIANCE_NORMALIZER, 1.0)
    else:
        effective = variance
    return FinesseEstimate(variance=variance, effective=effective)


def _expit(x: float) -> float:
    """Logistic sigmoid 1 / (1 + e^-x); 0 where e^-x overflows a double."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def loss_gradient(
    examples: list[LossExample],
    policy: BigramPolicy,
    reference: BigramPolicy,
    config: LossConfig,
) -> LossStep:
    """Mean batch loss, its analytic gradient w.r.t. the policy logits, and
    the batch's preference statistics, from one pass over the pairs.

    The policy's log-softmax and softmax tables and the reference's
    log-softmax table are each computed once per call. Per pair, with
    u = beta * S, the chain rule gives the coefficient
    -(1 - sigma(u)) * beta * mult applied to m_w * grad(log pi(y_w)) and
    the opposite sign on m_l * grad(log pi(y_l)). The finesse variance is
    treated as a constant: it is computed outside this function and no
    gradient flows through it.
    """
    if not examples:
        raise ValueError("batch must be non-empty")
    if reference.vocab != policy.vocab:
        raise ValueError("policy and reference vocabularies differ")
    policy_log = log_softmax(policy.logits)
    policy_probs = softmax(policy.logits)
    reference_log = log_softmax(reference.logits)
    grad = np.zeros_like(policy.logits)
    total = 0.0
    margins = []
    arguments = []
    wins = 0
    for example in examples:
        preferred = policy.transitions(example.prompt, example.preferred)
        rejected = policy.transitions(example.prompt, example.rejected)
        ratios = LogRatios(
            preferred=transition_log_prob(policy_log, preferred)
            - transition_log_prob(reference_log, preferred),
            rejected=transition_log_prob(policy_log, rejected)
            - transition_log_prob(reference_log, rejected),
        )
        s_w, s_l, v = example.preferred_actuality, example.rejected_actuality, example.effective_variance
        m_w, m_l, mult = _weights(s_w, s_l, v, config)
        score = preference_score(ratios, s_w, s_l, v, config)
        u = config.beta * score
        coeff = config.beta * mult * _expit(-u)  # expit(-u) == 1 - sigma(u)
        grad -= coeff * m_w * transition_grad(policy_probs, preferred)
        grad += coeff * m_l * transition_grad(policy_probs, rejected)
        total += hin_dpo_loss(score, config.beta)
        margins.append(config.beta * (ratios.preferred - ratios.rejected))
        arguments.append(u)
        wins += ratios.preferred > ratios.rejected
    n = len(examples)
    grad /= n
    return LossStep(
        gradient=grad,
        loss=total / n,
        margin=float(np.mean(margins)),
        weighted_margin=float(np.mean(arguments)),
        accuracy=wins / n,
    )
