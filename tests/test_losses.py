import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hindpo.losses import (
    MODES,
    TIE_TOLERANCE,
    LogRatios,
    LossConfig,
    LossExample,
    batch_stats,
    compute_finesse,
    encode_examples,
    encode_runs,
    hin_dpo_loss,
    loss_gradient,
    loss_steps,
    plan_runs,
    preference_score,
    _row_max,
)
from hindpo.policy import EOS, BigramPolicy, Vocabulary

import oracles
from oracles import finite_difference_gradient, relative_gradient_error, two_pass_variance


def softplus_oracle(x: float) -> float:
    """log(1 + exp(x)) in 50-digit decimal arithmetic, to a double's
    precision for x >= -70. Below that 1 + e^x keeps fewer of e^x's digits,
    and below about -115 it rounds to 1, so the oracle returns 0."""
    context = decimal.Context(prec=50)
    return float(context.ln(context.add(1, context.exp(decimal.Decimal(x)))))


def step_of(examples, policy, reference, config):
    """``loss_gradient`` on the examples, encoded against the reference."""
    return loss_gradient(encode_examples(examples, policy, reference), policy, config)


def dense_gradient(step, policy):
    """The step's gradient block scattered into a full V x V table."""
    grad = np.zeros_like(policy.logits)
    grad[step.rows] = step.gradient
    return grad


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
            {"finesse_max_len": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LossConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["beta", "epsilon", "scale_cap", "finesse_temperature"])
    def test_non_finite_value_rejected_naming_the_field(self, name, value):
        # NaN passes every `x <= 0` range check, so it needs its own.
        with pytest.raises(ValueError, match="^%s must be finite, got %r$" % (name, value)):
            LossConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value, kind",
        [
            ("beta", "0.6", "a number"),
            ("epsilon", True, "a number"),
            ("scale_cap", None, "a number"),
            ("mode", 5, "a string"),
            ("finesse_samples", 5.0, "an integer"),
            ("finesse_samples", False, "an integer"),
            ("finesse_max_len", 4.0, "an integer"),
        ],
    )
    def test_value_of_the_wrong_type_rejected_naming_the_field(self, name, value, kind):
        with pytest.raises(ValueError, match="^%s must be %s, got %s$" % (name, kind, re.escape(repr(value)))):
            LossConfig(**{name: value})

    def test_numpy_numbers_accepted_where_they_are_python_numbers(self):
        assert LossConfig(beta=np.float64(0.5)).beta == 0.5


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

    @pytest.mark.parametrize("variance", [0.0, 0.01, 0.3, 0.95])
    @pytest.mark.parametrize("mode, plain", [("dpo_fin", "dpo"), ("hin_dpo", "dpo_act")])
    def test_a_shared_variance_is_a_rescaled_beta(self, mode, plain, variance):
        # One variance v for the whole batch makes the finesse multiplier
        # min(1 / (v + epsilon), scale_cap) one constant, so the finesse step
        # is the plain step at beta times it. The cap binds at v = 0, and
        # at v = 0.95 the multiplier is exactly 1, so the steps are bit-equal.
        examples = random_examples(np.random.default_rng(250), n=6)
        for example in examples:
            example.effective_variance = variance
        policy, reference = make_policy(251), make_policy(252).snapshot()
        config = LossConfig(mode=mode)
        scale = min(1.0 / (variance + config.epsilon), config.scale_cap)
        assert (scale == config.scale_cap, scale == 1.0) == (variance == 0.0, variance == 0.95)
        finesse = step_of(examples, policy, reference, config)
        rescaled = step_of(examples, policy, reference, LossConfig(mode=plain, beta=config.beta * scale))
        assert np.array_equal(finesse.rows, rescaled.rows)
        assert finesse.loss == pytest.approx(rescaled.loss, rel=1e-12, abs=0)
        assert np.abs(finesse.gradient - rescaled.gradient).max() <= 1e-12 * np.abs(rescaled.gradient).max()
        if scale == 1.0:
            assert finesse.loss.hex() == rescaled.loss.hex()
            assert finesse.gradient.tobytes() == rescaled.gradient.tobytes()


class TestComputeFinesse:
    def test_near_deterministic_policy_zero_variance(self):
        # A sharply peaked policy sampled at a tiny temperature repeats the
        # same response, so the variance collapses to zero.
        vocab = Vocabulary.from_tokens(["a", "b"])
        logits = np.zeros((4, 4))
        logits[:, vocab.index(EOS)] = 10.0
        policy = BigramPolicy(vocab, logits)
        config = LossConfig(finesse_temperature=1e-6)
        [estimate] = compute_finesse(policy, [["a"]], config, np.random.default_rng(0))
        assert estimate.variance == 0.0
        assert estimate.effective == 0.0

    def test_running_variance_matches_two_pass(self):
        policy = make_policy(67, std=1.0)
        config = LossConfig(finesse_samples=5)
        # Re-draw the same responses and rebuild the scalars independently,
        # then compare the one-pass variance with the two-pass oracle.
        rng = np.random.default_rng(71)
        [estimate] = compute_finesse(policy, [["a"]], config, rng)
        rng = np.random.default_rng(71)
        scaled = BigramPolicy(policy.vocab, policy.logits / config.finesse_temperature)
        scalars = []
        prompts = [["a"]] * config.finesse_samples
        for response in policy.sample_responses(prompts, config.finesse_temperature, config.finesse_max_len, rng):
            scalars.append(math.exp(scaled.sequence_log_prob(["a"], response) / len(response)))
        assert abs(estimate.variance - two_pass_variance(scalars)) < 1e-12

    def test_effective_range_when_normalized(self):
        policy = make_policy(73, std=2.0)
        config = LossConfig()
        for seed in range(10):
            [estimate] = compute_finesse(policy, [["b"]], config, np.random.default_rng(seed))
            assert estimate.variance >= 0.0
            assert 0.0 <= estimate.effective <= 1.0

    def test_out_of_vocabulary_prompt(self):
        policy = make_policy(79)
        with pytest.raises(Exception):
            compute_finesse(policy, [["zz"]], LossConfig(), np.random.default_rng(0))

    @pytest.mark.parametrize("size", [57, 301])
    @pytest.mark.parametrize("temperature", [0.3, 0.9, 1.5])
    def test_matches_per_prompt_oracle_bit_for_bit(self, size, temperature):
        # One table for all prompts against the per-prompt, per-token loop.
        # The prompts include an empty one (the draw starts at BOS) and a
        # repeat; max_len 6 truncates some draws.
        policy = make_policy(size, std=1.5, tokens=["t%03d" % i for i in range(size - 2)])
        prompts = [[], ["t000"], ["t003", "t010"], ["t000"]]
        config = LossConfig(finesse_temperature=temperature, finesse_max_len=6)
        got = compute_finesse(policy, prompts, config, np.random.default_rng(size))
        rng = np.random.default_rng(size)
        assert got == [oracles.compute_finesse(policy, p, config, rng) for p in prompts]


BIT_GENERATORS = [np.random.PCG64, np.random.Philox, np.random.MT19937, np.random.SFC64]


def finesse_policy(seed):
    """A 17-token policy whose draws at the temperatures below sometimes
    end with EOS and sometimes run into max_len."""
    policy = make_policy(seed, std=1.5, tokens=["t%03d" % i for i in range(15)])
    policy.logits[:, policy.vocab.index(EOS)] += 1.0
    return policy


class TestFinesseSamplerMatchesOracle:
    # The block sampler against the per-token rng.choice loop, on every
    # bit generator numpy ships: the same estimates, and the generator
    # left where the per-token draws leave it.
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    @pytest.mark.parametrize("max_len", [1, 3, 16])
    @pytest.mark.parametrize("temperature", [0.3, 1.5])
    def test_estimates_and_next_draw(self, bit_generator, max_len, temperature):
        policy = finesse_policy(max_len)
        prompts = [[], ["t000"], ["t003", "t010"], ["t000"], ["t014"]]
        config = LossConfig(finesse_samples=4, finesse_temperature=temperature, finesse_max_len=max_len)
        ours, theirs = np.random.Generator(bit_generator(11)), np.random.Generator(bit_generator(11))
        for _ in range(3):
            got = compute_finesse(policy, prompts, config, ours)
            assert got == [oracles.compute_finesse(policy, p, config, theirs) for p in prompts]
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("max_len", [3, 16])
    @pytest.mark.parametrize("temperature", [0.3, 1.5])
    def test_draws_above_both_end_and_truncate(self, max_len, temperature):
        policy = finesse_policy(max_len)
        rng = np.random.default_rng(11)
        drawn = [oracles.sample_response(policy, ["t000"], temperature, max_len, rng) for _ in range(200)]
        assert any(r[-1] == EOS for r in drawn)
        assert any(len(r) == max_len and r[-1] != EOS for r in drawn)

    def test_max_len_one_scores_the_single_token(self):
        # With max_len 1 every sample is one token, so each scalar is the
        # tempered probability of that token from the start row.
        policy = make_policy(3, std=1.0)
        config = LossConfig(finesse_samples=6, finesse_temperature=0.7, finesse_max_len=1)
        [estimate] = compute_finesse(policy, [["a"]], config, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        scaled = BigramPolicy(policy.vocab, policy.logits / config.finesse_temperature)
        scalars = []
        for response in policy.sample_responses([["a"]] * config.finesse_samples, config.finesse_temperature, 1, rng):
            assert len(response) == 1
            scalars.append(math.exp(scaled.sequence_log_prob(["a"], response)))
        assert abs(estimate.variance - two_pass_variance(scalars)) < 1e-12


_WORDS = st.lists(st.sampled_from(["a", "b", "c"]), max_size=4)
_NEUTRAL_PAIRS = st.lists(
    st.tuples(_WORDS, _WORDS.map(lambda w: w + [EOS]), _WORDS.map(lambda w: w + [EOS])),
    min_size=1, max_size=6,
)


def _step_bytes(step):
    return step.rows.tobytes(), step.gradient.tobytes(), np.array(
        [step.loss, step.margin, step.weighted_margin, step.accuracy]
    ).tobytes()


class TestLossGradient:
    @settings(derandomize=True, deadline=None)
    @given(
        pairs=_NEUTRAL_PAIRS,
        seed=st.integers(0, 2**32 - 2),
        std=st.floats(0.1, 4.0),
        beta=st.floats(0.01, 5.0),
    )
    def test_neutral_hin_dpo_step_is_the_dpo_step(self, pairs, seed, std, beta):
        # s_w = 0, s_l = 1, epsilon = 1 and v = 0 make every weight exactly
        # 1, so the count-form step must be plain DPO's, bit for bit.
        policy = make_policy(seed, std=std)
        reference = make_policy(seed + 1, std=std).snapshot()
        examples = [
            LossExample(prompt, preferred, rejected, preferred_actuality=0.0,
                        rejected_actuality=1.0, effective_variance=0.0)
            for prompt, preferred, rejected in pairs
        ]
        encoded = encode_examples(examples, policy, reference)
        neutral = loss_gradient(encoded, policy, LossConfig(mode="hin_dpo", beta=beta, epsilon=1.0))
        plain = loss_gradient(encoded, policy, LossConfig(mode="dpo", beta=beta, epsilon=1.0))
        assert _step_bytes(neutral) == _step_bytes(plain)

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
        step = step_of([example], policy, reference, config)
        grad, loss = dense_gradient(step, policy), step.loss
        expected = -(0.6 / 2) * (
            oracles.grad_sequence_log_prob(policy, example.prompt, example.preferred)
            - oracles.grad_sequence_log_prob(policy, example.prompt, example.rejected)
        )
        assert loss == pytest.approx(math.log(2), abs=1e-15)
        assert np.allclose(grad, expected, atol=1e-15)

    @pytest.mark.parametrize("mode", ["dpo", "dpo_act", "dpo_fin", "hin_dpo"])
    def test_matches_finite_differences(self, mode):
        config = LossConfig(mode=mode)
        policy = make_policy(83)
        reference = make_policy(89).snapshot()
        examples = random_examples(np.random.default_rng(97))
        analytic = dense_gradient(step_of(examples, policy, reference, config), policy)
        numeric = finite_difference_gradient(
            lambda: step_of(examples, policy, reference, config).loss, policy.logits
        )
        assert relative_gradient_error(analytic, numeric) < 1e-5

    def test_step_against_gradient_decreases_loss(self):
        config = LossConfig(mode="hin_dpo")
        rng = np.random.default_rng(101)
        for seed in range(10):
            policy = make_policy(seed, std=0.8)
            reference = make_policy(seed + 1000).snapshot()
            examples = random_examples(rng, n=2)
            step = step_of(examples, policy, reference, config)
            policy.logits -= 0.01 * dense_gradient(step, policy)
            assert step_of(examples, policy, reference, config).loss < step.loss

    def test_mean_reduction_is_batch_size_invariant(self):
        config = LossConfig(mode="dpo")
        policy = make_policy(103)
        reference = make_policy(104).snapshot()
        example = random_examples(np.random.default_rng(105), n=1)[0]
        single = dense_gradient(step_of([example], policy, reference, config), policy)
        tripled = dense_gradient(step_of([example] * 3, policy, reference, config), policy)
        assert np.allclose(single, tripled)

    def test_empty_batch_rejected(self):
        policy = make_policy(107)
        with pytest.raises(ValueError):
            step_of([], policy, policy.snapshot(), LossConfig())
        encoded = encode_examples(random_examples(np.random.default_rng(107), n=1), policy, policy.snapshot())
        with pytest.raises(ValueError, match="non-empty"):
            plan_runs(encoded, [], 2, [LossConfig()])
        with pytest.raises(ValueError, match="batch_size >= 1"):
            plan_runs(encoded, [0], 0, [LossConfig()])

    def test_reference_vocabulary_must_match(self):
        policy = make_policy(108)
        other = make_policy(108, tokens=("a", "b", "d"))
        example = LossExample(prompt=["a"], preferred=["b", EOS], rejected=["a", EOS])
        with pytest.raises(ValueError, match="vocabularies differ"):
            encode_examples([example], policy, other.snapshot())

    def test_a_planned_epoch_is_rejected(self):
        # loss_gradient plans the whole encoding itself; a planned epoch is
        # stepped by loss_steps.
        policy = make_policy(109)
        encoded = encode_examples(random_examples(np.random.default_rng(109)), policy, make_policy(110).snapshot())
        plan = plan_runs(encoded, [2, 0, 1], 3, [LossConfig(mode="dpo")])
        with pytest.raises(ValueError, match="^loss_gradient takes EncodedPairs, got EpochPlan; step a planned EpochPlan with loss_steps$"):
            loss_gradient(plan, policy, LossConfig(mode="dpo"))
        assert oracles.one_run_step(plan, 0, policy.logits).loss > 0.0
        assert loss_gradient(encoded, policy, LossConfig(mode="dpo")).loss > 0.0

    def test_policy_vocabulary_must_match_the_encoding(self):
        policy = make_policy(108)
        other = make_policy(108, tokens=("a", "b", "d"))
        encoded = encode_examples(random_examples(np.random.default_rng(108)), policy, policy.snapshot())
        with pytest.raises(ValueError, match="^pairs were encoded for another vocabulary$"):
            loss_gradient(encoded, other, LossConfig())

    def test_finesse_constant_no_gradient_through_v(self):
        # Two different variances change the loss but both gradients still
        # match finite differences taken with v held fixed.
        policy = make_policy(109)
        reference = make_policy(110).snapshot()
        config = LossConfig(mode="hin_dpo")
        example = random_examples(np.random.default_rng(111), n=1)[0]
        for v in (0.1, 0.9):
            example.effective_variance = v
            analytic = dense_gradient(step_of([example], policy, reference, config), policy)
            numeric = finite_difference_gradient(
                lambda: step_of([example], policy, reference, config).loss, policy.logits
            )
            assert relative_gradient_error(analytic, numeric) < 1e-5


def assert_matches_unfused_step(plan, b, logits, learning_rate=0.3):
    """The step's gradient, its visited rows updated in place as the
    trainer updates them, and its five per-run statistics are bit for bit
    those of the unfused step."""
    visited, gradient = loss_steps(plan, b, logits)
    want_gradient, updated, stats = oracles.unfused_step(plan, b, logits, learning_rate)
    visited -= learning_rate * gradient
    assert gradient.tobytes() == want_gradient.tobytes()
    assert visited.tobytes() == updated.tobytes()
    assert [list(map(float.hex, v)) for v in batch_stats(plan, b, b + 1)[0].tolist()] == [list(map(float.hex, v)) for v in stats]


class TestStackedRuns:
    """K runs planned in one batch order and stepped as one stacked
    problem: each run's part of a batch is bit for bit the batch that run
    plans and steps alone."""

    @pytest.mark.parametrize("batch_size", [1, 3, 4, 9])
    def test_each_run_is_its_batch_planned_alone(self, batch_size):
        rng = np.random.default_rng(120)
        examples = random_examples(rng, n=10)
        policies = [make_policy(121 + k) for k in range(3)]
        references = [make_policy(131 + k).snapshot() for k in range(3)]
        variances = [rng.uniform(0, 1, len(examples)).tolist() for _ in range(3)]
        order = rng.permutation(len(examples))
        configs = [LossConfig(mode="hin_dpo"), LossConfig(mode="dpo", beta=0.3), LossConfig(mode="dpo_fin", epsilon=0.2)]
        logits = np.vstack([p.logits for p in policies])
        encoded = encode_runs(examples, policies[0], np.vstack([r.logits for r in references]), variances)
        stacked = plan_runs(encoded, order, batch_size, configs)
        size = len(policies[0].vocab)
        alone = []
        for policy, reference, v, config in zip(policies, references, variances, configs):
            for example, value in zip(examples, v):
                example.effective_variance = value
            alone.append(plan_runs(encode_examples(examples, policy, reference), order, batch_size, [config]))
        # dpo_act, the one mode the three runs leave out, planned alone on run 0.
        acting = plan_runs(encode_examples(examples, policies[0], references[0]), order, batch_size, [LossConfig(mode="dpo_act")])
        tables = [logits.copy(), *(p.logits.copy() for p in policies)]
        assert len(stacked) == len(alone[0]) == -(-len(examples) // batch_size)
        for j in range(len(stacked)):
            assert_matches_unfused_step(stacked, j, logits)
            assert_matches_unfused_step(acting, j, policies[0].logits)
            for plan, policy in zip(alone, policies):
                assert_matches_unfused_step(plan, j, policy.logits)
            _, gradient = loss_steps(stacked, j, logits)
            rows, gradients = np.split(stacked.rows_of(j), 3), np.split(gradient, 3)
            for k, (policy, config) in enumerate(zip(policies, configs)):
                own = oracles.one_run_step(alone[k], j, policy.logits)
                pairs = slice(j * batch_size, (j + 1) * batch_size)
                assert stacked.reference[:, pairs].shape[1] == alone[k].reference[:, pairs].shape[1]
                assert np.array_equal(rows[k], own.rows + k * size)
                assert gradients[k].tobytes() == own.gradient.tobytes()
                loss, margin, accuracy, weighted_margin, norm = batch_stats(stacked, j, j + 1)[0, :, k].tolist()
                values = (loss, margin, weighted_margin, accuracy, norm)
                expected = (own.loss, own.margin, own.weighted_margin, own.accuracy, oracles.grad_norm(own.gradient))
                assert list(map(float.hex, values)) == list(map(float.hex, expected))
        # The steps never write the tables they read.
        for table, after in zip(tables, [logits, *(p.logits for p in policies)]):
            assert table.tobytes() == after.tobytes()

    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_each_batch_is_its_run_major_plan(self, batch_size):
        # Four runs, an odd stage size (so every epoch ends in a short
        # batch at batch sizes 2 and 3) and an order with repeats: each
        # batch's slices of the batch-major plan are the arrays the
        # run-major planner gives that batch.
        rng = np.random.default_rng(142)
        examples = random_examples(rng, n=7)
        policy = make_policy(143)
        references = np.vstack([make_policy(144 + k).logits for k in range(4)])
        variances = [rng.uniform(0, 1, len(examples)).tolist() for _ in range(4)]
        configs = [LossConfig(mode=mode, beta=0.2 + 0.1 * k) for k, mode in enumerate(MODES)]
        encoded = encode_runs(examples, policy, references, variances)
        order = [3, 0, 6, 3, 1, 5, 5, 2, 4]
        plan = plan_runs(encoded, order, batch_size, configs)
        want = oracles.run_major_plan(encoded, order, batch_size, configs)
        assert len(plan) == len(want) == -(-len(order) // batch_size)
        assert plan.u.shape == plan.diff.shape == (4, len(order))
        assert plan.row_squares.shape == plan.rows.shape
        for b, batch in enumerate(want):
            got = vars(oracles.batch_arrays(plan, b))
            assert got.keys() == vars(batch).keys()
            for name, value in vars(batch).items():
                assert got[name].dtype == value.dtype, name
                assert got[name].tobytes() == value.tobytes(), name
                assert got[name].shape == value.shape, name

    def test_one_config_per_run_of_the_encoding(self):
        policy = make_policy(140)
        examples = random_examples(np.random.default_rng(140))
        encoded = encode_runs(examples, policy, np.vstack([policy.logits] * 2), [[0.0] * 3] * 2)
        with pytest.raises(ValueError, match="holds 2 runs, got 1 configs"):
            plan_runs(encoded, [0, 1, 2], 2, [LossConfig()])
        plan = plan_runs(encoded, [0, 1, 2], 3, [LossConfig()] * 2)
        loss_steps(plan, 0, np.vstack([policy.logits] * 2))
        assert batch_stats(plan).shape == (1, 5, 2)
        with pytest.raises(ValueError, match="holds 2 runs, got 1 configs"):
            loss_gradient(encoded, policy, LossConfig())

    @pytest.mark.parametrize("position", [-1, 2, -3, 5])
    def test_position_outside_the_encoding_rejected(self, position):
        # Negative positions would index from the end, and the others past it.
        policy = make_policy(141)
        encoded = encode_examples(random_examples(np.random.default_rng(141), n=2), policy, policy.snapshot())
        with pytest.raises(ValueError, match="^position %d is outside the 2 encoded pairs$" % position):
            plan_runs(encoded, [0, position], 1, [LossConfig()])


class TestBatchStats:
    """An epoch's statistics, taken in one ``batch_stats`` pass after its
    steps, are every batch's five statistics as the step took them itself
    (``oracles.per_step_stats``), bit for bit. The pass reduces each full
    batch's pairs along their own axis and a short last batch on its own:
    ``np.add.reduceat`` over the pair axis adds 3 or more values in
    another order, which batches of 1 or 2 pairs never show."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stage=st.integers(1, 25),
        length=st.integers(1, 45),
        batch_size=st.one_of(st.integers(1, 20), st.just(None)),
        runs=st.integers(1, 4),
    )
    def test_every_batch_is_its_per_step_statistics(self, seed, stage, length, batch_size, runs):
        # An order of any length over the stage's pairs, repeats allowed, so
        # the last batch is often short; None is a batch larger than the stage.
        rng = np.random.default_rng(seed)
        examples = random_examples(rng, n=stage)
        policy = make_policy(seed, std=2.0)
        references = np.vstack([make_policy(seed + 1 + k, std=2.0).logits for k in range(runs)])
        variances = [rng.uniform(0, 1, stage).tolist() for _ in range(runs)]
        configs = [LossConfig(mode=MODES[m], beta=float(rng.uniform(0.1, 2.0))) for m in rng.integers(len(MODES), size=runs)]
        order = rng.permutation(stage) if length <= stage else rng.integers(stage, size=length)
        plan = plan_runs(encode_runs(examples, policy, references, variances), order, batch_size or stage + 1, configs)
        logits = np.vstack([make_policy(seed + 10 + k, std=2.0).logits for k in range(runs)])
        want = []
        for b in range(len(plan)):
            visited, gradient = loss_steps(plan, b, logits)
            want.append(oracles.per_step_stats(plan, b, gradient))
            visited -= 0.5 * gradient
            logits[plan.rows_of(b)] = visited
        hexes = lambda table: [[list(map(float.hex, row)) for row in batch] for batch in np.asarray(table).tolist()]
        got = batch_stats(plan)
        assert got.shape == (len(plan), 5, runs)
        assert hexes(got) == hexes(want)
        start = int(rng.integers(len(plan)))
        stop = int(rng.integers(start, len(plan))) + 1
        assert hexes(batch_stats(plan, start, stop)) == hexes(want[start:stop])


_VOCAB_SIZE = 5  # BOS, EOS, a, b, c
_FINITE = st.floats(-4.0, 4.0)
_ANY = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), _FINITE)


@st.composite
def _special_rows(draw, rows):
    """A (rows, V) table. A row is drawn from finite values, from values
    that hold +-0.0, +-inf and NaN, or so that +0.0 and -0.0 tie for its
    maximum, in either order, above negative finite values."""
    table = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["finite", "special", "zero_tie"]))
        if kind == "zero_tie":
            row = draw(st.lists(st.floats(-4.0, -0.1), min_size=_VOCAB_SIZE, max_size=_VOCAB_SIZE))
            first, second = draw(st.lists(st.integers(0, _VOCAB_SIZE - 1), min_size=2, max_size=2, unique=True))
            row[first], row[second] = draw(st.sampled_from([(0.0, -0.0), (-0.0, 0.0)]))
        else:
            values = _FINITE if kind == "finite" else _ANY
            row = draw(st.lists(values, min_size=_VOCAB_SIZE, max_size=_VOCAB_SIZE))
        table.append(row)
    return np.array(table)


@st.composite
def _stacked_tables(draw):
    """(runs, references, logits): two (runs * V, V) tables of such rows."""
    runs = draw(st.integers(1, 3))
    return runs, draw(_special_rows(runs * _VOCAB_SIZE)), draw(_special_rows(runs * _VOCAB_SIZE))


class TestRowMaxAtArgmax:
    """Each row's maximum read at its argmax gives the bytes the axis-1
    reduction gives, in ``_row_max`` and in the two kernels that use it:
    only a +0.0 / -0.0 tie may change its sign, and then nothing
    downstream moves."""

    @settings(derandomize=True, deadline=None)
    @given(table=st.integers(1, 12).flatmap(_special_rows))
    def test_row_max_is_the_reduction(self, table):
        got, want = _row_max(table), oracles.reduce_row_max(table)
        assert got.shape == want.shape == (len(table), 1)
        assert np.array_equal(got, want, equal_nan=True)
        signed = want[:, 0] != 0
        assert got[signed].tobytes() == want[signed].tobytes()

    def test_row_max_of_a_zero_tie_is_a_zero(self):
        table = np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, -1.0], [math.nan, 1.0, math.inf], [-math.inf, -math.inf, -math.inf]])
        got = _row_max(table)[:, 0]
        assert got[:2].tolist() == [0.0, 0.0]
        assert math.isnan(got[2]) and got[3] == -math.inf

    @settings(derandomize=True, deadline=None)
    @given(tables=_stacked_tables(), seed=st.integers(0, 2**32 - 1), pairs=st.integers(1, 6), batch_size=st.integers(1, 4))
    def test_encode_runs_and_loss_steps_are_their_reduction_forms(self, tables, seed, pairs, batch_size):
        runs, references, logits = tables
        rng = np.random.default_rng(seed)
        examples = random_examples(rng, n=pairs)
        policy = make_policy(seed)
        variances = [rng.uniform(0, 1, pairs).tolist() for _ in range(runs)]
        configs = [LossConfig(mode=MODES[k]) for k in rng.integers(len(MODES), size=runs)]
        with np.errstate(all="ignore"):
            encoded = encode_runs(examples, policy, references, variances)
            assert encoded.reference.tobytes() == oracles.reference_scores_reduce(encoded, references).tobytes()
            plan = plan_runs(encoded, rng.permutation(pairs), batch_size, configs)
            for b in range(len(plan)):
                want_visited, want_gradient = oracles.loss_steps_reduce(plan, b, logits)
                want_tables = [table.copy() for table in (plan.u, plan.diff, plan.row_squares)]
                for table in (plan.u, plan.diff, plan.row_squares):
                    table[...] = 0.0
                visited, gradient = loss_steps(plan, b, logits)
                assert visited.tobytes() == want_visited.tobytes()
                assert gradient.tobytes() == want_gradient.tobytes()
                pairs = slice(b * batch_size, (b + 1) * batch_size)
                rows = slice(*plan.row_bounds[b : b + 2])
                assert plan.u[:, pairs].tobytes() == want_tables[0][:, pairs].tobytes()
                assert plan.diff[:, pairs].tobytes() == want_tables[1][:, pairs].tobytes()
                assert plan.row_squares[rows].tobytes() == want_tables[2][rows].tobytes()


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
        step = step_of([example], policy, policy.snapshot(), LossConfig(mode="dpo_act"))
        assert step.margin == 0.0
        assert step.weighted_margin == 0.0

    def test_finite(self):
        policy = make_policy(127, std=3.0)
        reference = make_policy(131, std=3.0).snapshot()
        example = LossExample(prompt=["a"], preferred=["b", "b", EOS], rejected=["c", EOS])
        step = step_of([example], policy, reference, LossConfig())
        assert math.isfinite(step.margin) and math.isfinite(step.weighted_margin)


class TestAccuracy:
    def test_rounding_noise_is_a_tie(self):
        # Both responses take the same transitions in another order, so
        # r_w = r_l in exact arithmetic; the summation order leaves a few
        # 1e-15 either way, which must not count as a preference.
        tokens = ("q", "a", "b", "c")
        example = LossExample(
            prompt=["q"], preferred=["a", "b", "a", "c", "a", EOS], rejected=["a", "c", "a", "b", "a", EOS]
        )
        margins = []
        for seed in range(20):
            policy = make_policy(seed, tokens=tokens)
            reference = make_policy(seed + 100, tokens=tokens).snapshot()
            step = step_of([example], policy, reference, LossConfig(mode="dpo"))
            assert abs(step.margin) < TIE_TOLERANCE
            assert step.accuracy == 0.0
            margins.append(step.margin)
        assert max(margins) > 0.0  # the noise does land on the preferred side

    def test_a_margin_past_the_tolerance_counts(self):
        policy = make_policy(151)
        reference = policy.snapshot()
        logits = policy.logits.copy()
        logits[policy.vocab.index("a"), policy.vocab.index("b")] += 1e-9
        moved = BigramPolicy(policy.vocab, logits)
        example = LossExample(prompt=["a"], preferred=["b", EOS], rejected=["c", EOS])
        assert step_of([example], moved, reference, LossConfig(mode="dpo")).accuracy == 1.0


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
            step = step_of(batch, policy, reference, config)
            grad, loss = oracles.loss_gradient(batch, policy, reference, config)
            margin, accuracy = oracles.preference_stats(policy, reference, batch, config.beta)
            weighted, _ = oracles.weighted_margin_stats(policy, reference, batch, config)
            assert np.abs(dense_gradient(step, policy) - grad).max() <= 1e-12
            assert step.loss == pytest.approx(loss, rel=1e-12, abs=1e-12)
            assert step.loss == pytest.approx(
                oracles.batch_loss(batch, policy, reference, config), rel=1e-12, abs=1e-12
            )
            assert step.margin == pytest.approx(margin, rel=1e-12, abs=1e-12)
            assert step.weighted_margin == pytest.approx(weighted, rel=1e-12, abs=1e-12)
            assert step.accuracy == accuracy

    @pytest.mark.parametrize("mode", MODES)
    def test_batches_of_one_encoding_match_oracle(self, mode):
        # Every oracle pair in one encoding, as train builds once per stage;
        # the batches planned from it repeat pairs and reorder them.
        config = LossConfig(mode=mode)
        policy, reference, batches = oracle_setup()
        examples = [example for batch in batches for example in batch]
        encoded = encode_examples(examples, policy, reference)
        last = len(examples) - 1
        for picks in ([0, 0], [5, 1, 5], [last, 7, 7, 0], [9, 9, 9], list(range(last, -1, -1))):
            batch = [examples[i] for i in picks]
            planned = plan_runs(encoded, picks, len(picks), [config])
            step = oracles.one_run_step(planned, 0, policy.logits)
            assert len(planned) == 1 and planned.reference.shape[1] == len(picks)
            grad, loss = oracles.loss_gradient(batch, policy, reference, config)
            margin, accuracy = oracles.preference_stats(policy, reference, batch, config.beta)
            weighted, _ = oracles.weighted_margin_stats(policy, reference, batch, config)
            assert np.abs(dense_gradient(step, policy) - grad).max() <= 1e-12
            assert step.loss == pytest.approx(loss, rel=1e-12, abs=1e-12)
            assert step.margin == pytest.approx(margin, rel=1e-12, abs=1e-12)
            assert step.weighted_margin == pytest.approx(weighted, rel=1e-12, abs=1e-12)
            assert step.accuracy == accuracy
            # A batch planned from the stage encoding is the batch encoded alone.
            direct = step_of(batch, policy, reference, config)
            assert np.array_equal(step.rows, direct.rows)
            assert np.array_equal(step.gradient, direct.gradient)
            assert (step.loss, step.margin, step.weighted_margin) == (
                direct.loss, direct.margin, direct.weighted_margin
            )

    @pytest.mark.parametrize("mode", MODES)
    def test_overflowing_argument_contributes_no_gradient(self, mode):
        policy, reference, batches = oracle_setup()
        step = step_of(batches[2], policy, reference, LossConfig(mode=mode))
        assert step.weighted_margin > 710.0
        assert step.loss == 0.0
        assert not step.gradient.any()
