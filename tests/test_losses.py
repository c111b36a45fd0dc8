import math

import mpmath
import numpy as np
import pytest

from hindpo.losses import (
    MODES,
    LogRatios,
    LossConfig,
    LossExample,
    compute_finesse,
    hin_dpo_loss,
    loss_gradient,
    preference_score,
)
from hindpo.policy import EOS, BigramPolicy, Vocabulary

import oracles
from oracles import finite_difference_gradient, relative_gradient_error, two_pass_variance


def softplus_oracle(x: float) -> float:
    """High-precision log(1 + exp(x))."""
    with mpmath.workdps(50):
        return float(mpmath.log(1 + mpmath.exp(x)))


def make_policy(seed, std=1.0, tokens=("a", "b", "c")):
    vocab = Vocabulary.from_tokens(tokens)
    rng = np.random.default_rng(seed)
    return BigramPolicy(vocab, rng.normal(0, std, (len(vocab), len(vocab))))


def random_examples(rng, n=3, tokens=("a", "b", "c")):
    out = []
    for _ in range(n):
        prompt = [tokens[rng.integers(len(tokens))]]
        preferred = [tokens[rng.integers(len(tokens))] for _ in range(int(rng.integers(1, 4)))]
        rejected = [tokens[rng.integers(len(tokens))] for _ in range(int(rng.integers(1, 4)))]
        out.append(
            LossExample(
                prompt=prompt,
                preferred=preferred + [EOS],
                rejected=rejected + [EOS],
                preferred_actuality=float(rng.uniform(0, 1)),
                rejected_actuality=float(rng.uniform(0, 1)),
                effective_variance=float(rng.uniform(0, 1)),
            )
        )
    return out


class TestLossConfig:
    def test_defaults(self):
        config = LossConfig()
        assert config.beta == 0.6
        assert config.epsilon == 0.05
        assert config.finesse_samples == 5
        assert config.finesse_temperature == 0.9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"epsilon": -1.0},
            {"scale_cap": 0.0},
            {"mode": "ppo"},
            {"finesse_samples": 1},
            {"finesse_temperature": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LossConfig(**kwargs)


class TestPreferenceScore:
    def test_hand_arithmetic(self):
        config = LossConfig(mode="hin_dpo", epsilon=1.0)
        score = preference_score(LogRatios(0.5, -0.5), 0.5, 0.2, 0.0, config)
        # (1 + 0.5) * 0.5 - max(0.01, 0.2) * (-0.5) = 0.75 + 0.10
        assert score == pytest.approx(0.85, abs=1e-15)

    def test_collapse_to_plain_margin(self):
        config = LossConfig(mode="hin_dpo", epsilon=1.0)
        ratios = LogRatios(1.25, -0.75)
        score = preference_score(ratios, 0.0, 1.0, 0.0, config)
        assert score == ratios.preferred - ratios.rejected

    def test_rejected_weight_floor(self):
        config = LossConfig(mode="hin_dpo", epsilon=1.0)
        score = preference_score(LogRatios(0.0, 1.0), 0.0, 0.001, 0.0, config)
        assert score == -0.01  # floor multiplier, not 0.001

    def test_mode_dpo_ignores_weights(self):
        config = LossConfig(mode="dpo")
        ratios = LogRatios(0.3, 0.1)
        assert preference_score(ratios, 0.9, 0.1, 0.9, config) == pytest.approx(0.2)

    def test_dpo_fin_scales_margin(self):
        config = LossConfig(mode="dpo_fin", epsilon=0.05)
        ratios = LogRatios(0.4, 0.2)
        low = preference_score(ratios, 0.0, 1.0, 0.0, config)
        high = preference_score(ratios, 0.0, 1.0, 1.0, config)
        assert low == pytest.approx(0.2 * 20.0)  # capped 1/epsilon
        assert high == pytest.approx(0.2 / 1.05)

    def test_multiplier_capped(self):
        config = LossConfig(mode="dpo_fin", epsilon=0.001, scale_cap=20.0)
        score = preference_score(LogRatios(1.0, 0.0), 0.0, 1.0, 0.0, config)
        assert score == pytest.approx(20.0)


class TestHinDpoLoss:
    def test_zero_score(self):
        assert hin_dpo_loss(0.0, 0.6) == pytest.approx(math.log(2), abs=1e-15)

    def test_against_high_precision_oracle(self):
        assert hin_dpo_loss(0.85, 0.6) == pytest.approx(softplus_oracle(-0.51), abs=1e-14)
        assert hin_dpo_loss(0.85, 0.6) == pytest.approx(0.4703, abs=1e-4)

    def test_asymptotics(self):
        assert 0.0 < hin_dpo_loss(50.0, 0.6) < 1e-12
        assert hin_dpo_loss(-50.0, 0.6) == pytest.approx(0.6 * 50.0, rel=1e-12)

    def test_never_nan_in_representable_range(self):
        rng = np.random.default_rng(47)
        for _ in range(1000):
            score = float(rng.uniform(-700, 700))
            loss = hin_dpo_loss(score, 1.0)
            assert math.isfinite(loss) and loss > 0.0


def standard_dpo_loss(ratios: LogRatios, beta: float) -> float:
    """Plain DPO loss: hin_dpo_loss of the unweighted margin r_w - r_l."""
    return hin_dpo_loss(ratios.preferred - ratios.rejected, beta)


class TestStandardDpoLoss:
    def test_equal_ratios(self):
        assert standard_dpo_loss(LogRatios(0.4, 0.4), 0.6) == pytest.approx(math.log(2))

    def test_unit_margin(self):
        got = standard_dpo_loss(LogRatios(1.0, 0.0), 0.6)
        assert got == pytest.approx(softplus_oracle(-0.6), abs=1e-14)
        assert got == pytest.approx(0.4375, abs=1e-4)

    def test_bitwise_equal_to_collapsed_hin_dpo(self):
        config = LossConfig(mode="hin_dpo", epsilon=1.0)
        rng = np.random.default_rng(53)
        for _ in range(100):
            ratios = LogRatios(float(rng.normal()), float(rng.normal()))
            collapsed = hin_dpo_loss(
                preference_score(ratios, 0.0, 1.0, 0.0, config), config.beta
            )
            assert standard_dpo_loss(ratios, config.beta) == collapsed

    def test_bitwise_equal_to_dpo_mode(self):
        config = LossConfig(mode="dpo")
        rng = np.random.default_rng(59)
        for _ in range(100):
            ratios = LogRatios(float(rng.normal()), float(rng.normal()))
            via_mode = hin_dpo_loss(
                preference_score(ratios, 0.7, 0.3, 0.5, config), config.beta
            )
            assert standard_dpo_loss(ratios, config.beta) == via_mode


class TestMonotonicity:
    @pytest.mark.parametrize("mode", ["dpo", "dpo_act", "dpo_fin", "hin_dpo"])
    def test_loss_direction(self, mode):
        config = LossConfig(mode=mode)
        rng = np.random.default_rng(61)
        for _ in range(100):
            r_w, r_l = rng.normal(0, 2, 2)
            s_w, s_l = rng.uniform(0.1, 1.0, 2)
            v = float(rng.uniform(0, 1))

            def loss(rw, rl):
                score = preference_score(LogRatios(float(rw), float(rl)), s_w, s_l, v, config)
                return hin_dpo_loss(score, config.beta)

            base = loss(r_w, r_l)
            assert loss(r_w + 0.1, r_l) < base
            assert loss(r_w, r_l + 0.1) > base


class TestFinesseScaling:
    def test_lower_variance_lower_loss(self):
        # Positive margin: shrinking the variance amplifies it, so the loss
        # strictly drops.
        config = LossConfig(mode="hin_dpo")
        ratios = LogRatios(0.8, 0.2)
        variances = [1.0, 0.5, 0.25, 0.1, 0.01, 0.0]
        losses = [
            hin_dpo_loss(preference_score(ratios, 0.5, 0.5, v, config), config.beta)
            for v in variances
        ]
        assert all(a > b for a, b in zip(losses, losses[1:]))


class TestComputeFinesse:
    def test_near_deterministic_policy_zero_variance(self):
        # A sharply peaked policy sampled at a tiny temperature repeats the
        # same response, so the variance collapses to zero.
        vocab = Vocabulary.from_tokens(["a", "b"])
        logits = np.zeros((4, 4))
        logits[:, vocab.index(EOS)] = 10.0
        policy = BigramPolicy(vocab, logits)
        config = LossConfig(finesse_temperature=1e-6)
        estimate = compute_finesse(policy, ["a"], config, np.random.default_rng(0))
        assert estimate.variance == 0.0
        assert estimate.effective == 0.0

    def test_running_variance_matches_two_pass(self):
        policy = make_policy(67, std=1.0)
        config = LossConfig(finesse_samples=5)
        # Re-draw the same responses and rebuild the scalars independently,
        # then compare the one-pass variance with the two-pass oracle.
        rng = np.random.default_rng(71)
        estimate = compute_finesse(policy, ["a"], config, rng)
        rng = np.random.default_rng(71)
        scaled = BigramPolicy(policy.vocab, policy.logits / config.finesse_temperature)
        scalars = []
        for _ in range(config.finesse_samples):
            response = policy.sample_response(
                ["a"], config.finesse_temperature, config.finesse_max_len, rng
            )
            scalars.append(math.exp(scaled.sequence_log_prob(["a"], response) / len(response)))
        assert abs(estimate.variance - two_pass_variance(scalars)) < 1e-12

    def test_effective_range_when_normalized(self):
        policy = make_policy(73, std=2.0)
        config = LossConfig(normalize_variance=True)
        for seed in range(10):
            estimate = compute_finesse(policy, ["b"], config, np.random.default_rng(seed))
            assert estimate.variance >= 0.0
            assert 0.0 <= estimate.effective <= 1.0

    def test_out_of_vocabulary_prompt(self):
        policy = make_policy(79)
        with pytest.raises(Exception):
            compute_finesse(policy, ["zz"], LossConfig(), np.random.default_rng(0))


class TestLossGradient:
    def test_sigma_zero_coefficient_is_half_beta(self):
        # Policy equals reference, neutral weights: u = 0 and the gradient
        # is exactly -(beta / 2) * (grad_w - grad_l).
        policy = BigramPolicy.new(Vocabulary.from_tokens(["a", "b"]))
        reference = policy.snapshot()
        example = LossExample(
            prompt=["a"], preferred=["a", EOS], rejected=["b", EOS],
            preferred_actuality=0.0, rejected_actuality=1.0,
        )
        config = LossConfig(mode="hin_dpo", epsilon=1.0, beta=0.6)
        step = loss_gradient([example], policy, reference, config)
        grad, loss = step.gradient, step.loss
        expected = -(0.6 / 2) * (
            policy.grad_sequence_log_prob(example.prompt, example.preferred)
            - policy.grad_sequence_log_prob(example.prompt, example.rejected)
        )
        assert loss == pytest.approx(math.log(2), abs=1e-15)
        assert np.allclose(grad, expected, atol=1e-15)

    @pytest.mark.parametrize("mode", ["dpo", "dpo_act", "dpo_fin", "hin_dpo"])
    def test_matches_finite_differences(self, mode):
        config = LossConfig(mode=mode)
        policy = make_policy(83)
        reference = make_policy(89).snapshot()
        examples = random_examples(np.random.default_rng(97))
        analytic = loss_gradient(examples, policy, reference, config).gradient
        numeric = finite_difference_gradient(
            lambda: loss_gradient(examples, policy, reference, config).loss, policy.logits
        )
        assert relative_gradient_error(analytic, numeric) < 1e-5

    def test_step_against_gradient_decreases_loss(self):
        config = LossConfig(mode="hin_dpo")
        rng = np.random.default_rng(101)
        for seed in range(10):
            policy = make_policy(seed, std=0.8)
            reference = make_policy(seed + 1000).snapshot()
            examples = random_examples(rng, n=2)
            step = loss_gradient(examples, policy, reference, config)
            policy.logits -= 0.01 * step.gradient
            assert loss_gradient(examples, policy, reference, config).loss < step.loss

    def test_mean_reduction_is_batch_size_invariant(self):
        config = LossConfig(mode="dpo")
        policy = make_policy(103)
        reference = make_policy(104).snapshot()
        example = random_examples(np.random.default_rng(105), n=1)[0]
        single = loss_gradient([example], policy, reference, config).gradient
        tripled = loss_gradient([example] * 3, policy, reference, config).gradient
        assert np.allclose(single, tripled)

    def test_empty_batch_rejected(self):
        policy = make_policy(107)
        with pytest.raises(ValueError):
            loss_gradient([], policy, policy.snapshot(), LossConfig())

    def test_reference_vocabulary_must_match(self):
        policy = make_policy(108)
        other = make_policy(108, tokens=("a", "b", "d"))
        example = LossExample(prompt=["a"], preferred=["b", EOS], rejected=["a", EOS])
        with pytest.raises(ValueError, match="vocabularies differ"):
            loss_gradient([example], policy, other.snapshot(), LossConfig())

    def test_finesse_constant_no_gradient_through_v(self):
        # Two different variances change the loss but both gradients still
        # match finite differences taken with v held fixed.
        policy = make_policy(109)
        reference = make_policy(110).snapshot()
        config = LossConfig(mode="hin_dpo")
        example = random_examples(np.random.default_rng(111), n=1)[0]
        for v in (0.1, 0.9):
            example.effective_variance = v
            analytic = loss_gradient([example], policy, reference, config).gradient
            numeric = finite_difference_gradient(
                lambda: loss_gradient([example], policy, reference, config).loss, policy.logits
            )
            assert relative_gradient_error(analytic, numeric) < 1e-5


class TestLogRatios:
    # The log-ratios reach the caller through the step's margins. With
    # unequal actuality weights (m_w = 1.5, m_l = 1) a zero raw margin and a
    # zero weighted margin together force r_w = r_l = 0.
    def test_identical_policies_zero(self):
        policy = make_policy(113)
        example = LossExample(
            prompt=["a"], preferred=["b", EOS], rejected=["c", EOS],
            preferred_actuality=0.5, rejected_actuality=1.0,
        )
        step = loss_gradient([example], policy, policy.snapshot(), LossConfig(mode="dpo_act"))
        assert step.margin == 0.0
        assert step.weighted_margin == 0.0

    def test_finite(self):
        policy = make_policy(127, std=3.0)
        reference = make_policy(131, std=3.0).snapshot()
        example = LossExample(prompt=["a"], preferred=["b", "b", EOS], rejected=["c", EOS])
        step = loss_gradient([example], policy, reference, LossConfig())
        assert math.isfinite(step.margin) and math.isfinite(step.weighted_margin)


def oracle_setup():
    """Policy, reference and batches for the oracle comparison.

    The batches hold random pairs; pairs that revisit one row, within a
    response and across the batch, next to a tie (r_w == r_l, which does
    not count as a win); a pair whose beta * S is far past the point
    where exp(beta * S) overflows; that pair mixed with others; a single
    random pair; nine random pairs (more than numpy's 8-element pairwise
    summation block); and EOS-only responses, one after an empty prompt
    (so the transition leaves BOS). For the overflowing pair the reference
    all but rules out a -> b, so r_w is ~2000 and beta * S exceeds 710 in
    every mode.
    """
    rng = np.random.default_rng(137)
    policy = make_policy(139)
    reference_logits = make_policy(149).logits
    reference_logits[policy.vocab.index("a"), policy.vocab.index("b")] = -2000.0
    reference = BigramPolicy(policy.vocab, reference_logits).snapshot()
    revisits = [
        LossExample(
            prompt=["a"], preferred=["a", "a", "b", EOS], rejected=["a", "c", EOS],
            preferred_actuality=0.7, rejected_actuality=0.2, effective_variance=0.3,
        ),
        LossExample(
            prompt=["a"], preferred=["a", "b", EOS], rejected=["c", "c", "a", EOS],
            preferred_actuality=0.1, rejected_actuality=0.005, effective_variance=0.9,
        ),
        LossExample(prompt=["b"], preferred=["c", EOS], rejected=["c", EOS]),
    ]
    far_apart = LossExample(
        prompt=["a"], preferred=["b", EOS], rejected=["c", EOS],
        preferred_actuality=0.4, rejected_actuality=0.6, effective_variance=0.5,
    )
    eos_only = [
        LossExample(
            prompt=["c"], preferred=[EOS], rejected=["b", "a", EOS],
            preferred_actuality=0.8, rejected_actuality=0.4, effective_variance=0.2,
        ),
        LossExample(prompt=[], preferred=["a", EOS], rejected=[EOS], effective_variance=0.6),
        LossExample(prompt=["b"], preferred=[EOS], rejected=[EOS], preferred_actuality=0.3),
    ]
    batches = [
        random_examples(rng, n=4),
        revisits,
        [far_apart],
        [far_apart] + random_examples(rng, n=2),
        random_examples(rng, n=1),
        random_examples(rng, n=9),
        eos_only,
    ]
    return policy, reference, batches


class TestLossGradientMatchesOracle:
    @pytest.mark.parametrize("mode", MODES)
    def test_step_matches_per_pair_oracle(self, mode):
        config = LossConfig(mode=mode)
        policy, reference, batches = oracle_setup()
        assert [len(batch) for batch in batches] == [4, 3, 1, 3, 1, 9, 3]
        for batch in batches:
            step = loss_gradient(batch, policy, reference, config)
            grad, loss = oracles.loss_gradient(batch, policy, reference, config)
            margin, accuracy = oracles.preference_stats(policy, reference, batch, config.beta)
            weighted, _ = oracles.weighted_margin_stats(policy, reference, batch, config)
            assert np.abs(step.gradient - grad).max() <= 1e-12
            assert step.loss == pytest.approx(loss, rel=1e-12, abs=1e-12)
            assert step.loss == pytest.approx(
                oracles.batch_loss(batch, policy, reference, config), rel=1e-12, abs=1e-12
            )
            assert step.margin == pytest.approx(margin, rel=1e-12, abs=1e-12)
            assert step.weighted_margin == pytest.approx(weighted, rel=1e-12, abs=1e-12)
            assert step.accuracy == accuracy

    @pytest.mark.parametrize("mode", MODES)
    def test_overflowing_argument_contributes_no_gradient(self, mode):
        policy, reference, batches = oracle_setup()
        step = loss_gradient(batches[2], policy, reference, LossConfig(mode=mode))
        assert step.weighted_margin > 710.0
        assert step.loss == 0.0
        assert not step.gradient.any()
