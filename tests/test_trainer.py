import functools
import json
import re
import types
import warnings
from dataclasses import asdict, replace
from itertools import groupby

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from hindpo import fileio, textmetrics, trainer
from hindpo.corpora import separable_curriculum, toy_corpus
from hindpo.dataforge import CurriculumDataset, SchemaError, forge
from hindpo.losses import MODES, STATS, EncodedPairs, LossConfig, compute_finesse, encode_examples, loss_gradient, plan_runs
from hindpo.policy import EOS, BigramPolicy
from hindpo.trainer import (
    TrainConfig,
    TrainingError,
    TrainLog,
    TrainStepRecord,
    attach_finesse,
    encode_pairs,
    gradcheck,
    train,
    train_modes,
    vocab_from_pairs,
)


def toy_train_config(mode="dpo", **overrides):
    defaults = dict(
        epochs_per_stage=10,
        learning_rate=0.5,
        batch_size=2,
        seed=5,
        loss=LossConfig(mode=mode),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def separable_setup(mode="dpo", **pair_kwargs):
    curriculum = separable_curriculum(seed=1, **pair_kwargs)
    vocab = vocab_from_pairs(curriculum.all_pairs())
    policy = BigramPolicy.new(vocab)
    return curriculum, policy


class TestEncodePairs:
    def test_appends_eos_and_defaults(self):
        curriculum = separable_curriculum(n_pairs=1)
        pair = curriculum.all_pairs()[0]
        pair.s_w = None
        pair.s_l = None
        example = encode_pairs([pair])[0]
        assert example.preferred[-1] == EOS
        assert example.rejected[-1] == EOS
        assert example.preferred_actuality == 0.0
        assert example.rejected_actuality == 1.0

    def test_carries_actuality(self):
        curriculum = separable_curriculum(n_pairs=1, preferred_actuality=0.8, rejected_actuality=0.1)
        example = encode_pairs(curriculum.all_pairs())[0]
        assert example.preferred_actuality == 0.8
        assert example.rejected_actuality == 0.1


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"epochs_per_stage": 0}, {"learning_rate": 0.0}, {"batch_size": 0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_learning_rate_rejected(self, value):
        with pytest.raises(ValueError, match="^learning_rate must be finite, got %r$" % value):
            TrainConfig(learning_rate=value)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("batch_size", 2.0, "batch_size must be an integer, got 2.0"),
            ("epochs_per_stage", 2.0, "epochs_per_stage must be an integer, got 2.0"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", True, "seed must be an integer, got True"),
            ("learning_rate", "0.5", "learning_rate must be a number, got '0.5'"),
            ("refresh_reference_per_stage", 1, "refresh_reference_per_stage must be true or false, got 1"),
            ("loss", {"beta": 0.6}, "loss must be a LossConfig, got {'beta': 0.6}"),
        ],
    )
    def test_value_of_the_wrong_type_rejected_naming_the_field(self, name, value, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            TrainConfig(**{name: value})


class TestTrainOnSeparableCorpus:
    @pytest.mark.parametrize("mode", ["dpo", "dpo_act", "dpo_fin", "hin_dpo"])
    def test_reaches_high_accuracy(self, mode):
        curriculum, policy = separable_setup()
        initial = policy.snapshot()
        trained, _ = train(curriculum, policy, toy_train_config(mode))
        examples = encode_pairs(curriculum.all_pairs())
        accuracy = loss_gradient(encode_examples(examples, trained, initial), trained, LossConfig(beta=0.6)).accuracy
        assert accuracy >= 0.95

    @pytest.mark.parametrize("mode", ["dpo", "dpo_act", "dpo_fin", "hin_dpo"])
    def test_margin_non_decreasing_after_epoch_two(self, mode):
        curriculum, policy = separable_setup()
        _, log = train(curriculum, policy, toy_train_config(mode))
        epoch_means = {}
        for record in log.records:
            epoch_means.setdefault(record.epoch, []).append(record.margin)
        means = [float(np.mean(epoch_means[e])) for e in sorted(epoch_means)]
        tail = means[1:]
        assert all(a <= b + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_weighted_mode_grows_margin_faster(self):
        # Margin here is the sigmoid argument beta * S: the separation the
        # loss drives, comparable across modes.
        config_dpo = toy_train_config("dpo")
        curriculum, policy = separable_setup()
        initial = policy.snapshot()
        trained_dpo, _ = train(curriculum, policy, config_dpo)
        examples = encode_pairs(curriculum.all_pairs())
        margin_dpo = loss_gradient(
            encode_examples(examples, trained_dpo, initial), trained_dpo, config_dpo.loss
        ).weighted_margin

        config_hin = toy_train_config("hin_dpo")
        curriculum_hin, policy_hin = separable_setup(
            preferred_actuality=1.0, rejected_actuality=0.01
        )
        trained_hin, _ = train(curriculum_hin, policy_hin, config_hin)
        examples_hin = encode_pairs(curriculum_hin.all_pairs())
        attach_finesse(examples_hin, trained_hin, config_hin.loss, np.random.default_rng(123))
        margin_hin = loss_gradient(
            encode_examples(examples_hin, trained_hin, initial), trained_hin, config_hin.loss
        ).weighted_margin
        assert margin_hin > margin_dpo


def oracle_train(curriculum, policy, config):
    """``train`` with the per-prompt oracle finesse and the per-pair oracle
    step; returns the policy and the per-step losses."""
    order_rng, finesse_rng = oracles.train_generators(config.seed)
    reference = policy.snapshot()
    losses = []
    for _, pairs in curriculum.stages:
        examples = encode_pairs(pairs)
        if config.loss.uses_finesse():
            estimates = {}
            for example in examples:
                key = tuple(example.prompt)
                if key not in estimates:
                    estimates[key] = oracles.compute_finesse(policy, example.prompt, config.loss, finesse_rng).effective
                example.effective_variance = estimates[key]
        for _ in range(config.epochs_per_stage):
            order = order_rng.permutation(len(examples))
            for start in range(0, len(order), config.batch_size):
                batch = [examples[i] for i in order[start : start + config.batch_size]]
                grad, loss = oracles.loss_gradient(batch, policy, reference, config.loss)
                policy.logits = policy.logits - config.learning_rate * grad
                losses.append(loss)
        if config.refresh_reference_per_stage:
            reference = policy.snapshot()
    return policy, losses


def test_attach_finesse_draws_one_estimate_per_prompt(monkeypatch):
    # Two pairs share a prompt but prefer different responses: the
    # estimate depends only on the prompt, so both get the same one.
    pairs = separable_curriculum(n_pairs=6, seed=1).all_pairs()
    pairs[1] = replace(pairs[1], prompt=pairs[0].prompt, preferred="a b")
    policy = BigramPolicy.new(vocab_from_pairs(pairs))
    examples = encode_pairs(pairs)
    received = []

    def recording(policy, prompts, config, rng):
        received.extend(list(p) for p in prompts)
        return compute_finesse(policy, prompts, config, rng)

    monkeypatch.setattr(trainer, "compute_finesse", recording)
    attach_finesse(examples, policy, LossConfig(mode="hin_dpo"), np.random.default_rng(0))
    assert received == [[prompt] for prompt in dict.fromkeys(pair.prompt for pair in pairs)]
    assert examples[1].effective_variance == examples[0].effective_variance


class TestTrainMatchesOracleLoop:
    @pytest.mark.parametrize("mode", ["dpo", "dpo_act", "dpo_fin", "hin_dpo"])
    @pytest.mark.parametrize("stages", [1, 2])
    def test_logits_and_losses(self, mode, stages):
        # The separable pairs as one stage, or split into two so the
        # reference refresh and a second finesse table are exercised; a
        # batch size of 3 leaves a short last batch.
        curriculum, policy = separable_setup(preferred_actuality=0.7, rejected_actuality=0.2)
        if stages == 2:
            pairs = curriculum.all_pairs()
            curriculum = CurriculumDataset(stages=[("B_L", pairs[:20]), ("B_H", pairs[20:])], order="algorithm1")
        config = toy_train_config(mode, batch_size=3, epochs_per_stage=4)
        expected, losses = oracle_train(curriculum, policy.copy(), config)
        trained, log = train(curriculum, policy, config)
        assert np.abs(trained.logits - expected.logits).max() <= 1e-10
        assert len(log.records) == len(losses)
        assert max(abs(r.loss - loss) for r, loss in zip(log.records, losses)) <= 1e-10


def dense_train(curriculum, policy, config):
    """``train``'s steps, each applied to the whole table as
    logits - lr * dense with the step's gradient block scattered into a
    dense zero gradient."""
    order_rng, finesse_rng = oracles.train_generators(config.seed)
    reference = policy.snapshot()
    for _, pairs in curriculum.stages:
        examples = encode_pairs(pairs)
        if config.loss.uses_finesse():
            attach_finesse(examples, policy, config.loss, finesse_rng)
        encoded = encode_examples(examples, policy, reference)
        for _ in range(config.epochs_per_stage):
            plan = plan_runs(encoded, order_rng.permutation(len(encoded)), config.batch_size, [config.loss])
            for b in range(len(plan)):
                step = oracles.one_run_step(plan, b, policy.logits)
                dense = np.zeros_like(policy.logits)
                dense[step.rows] = step.gradient
                policy.logits = policy.logits - config.learning_rate * dense
        if config.refresh_reference_per_stage:
            reference = policy.snapshot()
    return policy


class TestVisitedRowUpdate:
    @pytest.mark.parametrize("mode", ["dpo", "dpo_act", "dpo_fin", "hin_dpo"])
    def test_logits_equal_the_dense_update(self, mode):
        curriculum = two_stage_curriculum()
        policy = BigramPolicy.new(vocab_from_pairs(curriculum.all_pairs()), seed=4, noise_std=0.3)
        config = toy_train_config(mode, batch_size=3, epochs_per_stage=3)
        expected = dense_train(curriculum, policy.copy(), config)
        trained, _ = train(curriculum, policy, config)
        assert np.array_equal(trained.logits, expected.logits)

    def test_callers_array_unwritten_and_a_snapshot_trains(self):
        curriculum, policy = separable_setup()
        original = policy.logits
        before = original.copy()
        frozen = policy.snapshot()
        trained, _ = train(curriculum, policy, toy_train_config())
        assert trained is not policy and policy.logits is original
        assert np.array_equal(original, before)
        trained_frozen, _ = train(curriculum, frozen, toy_train_config())
        assert trained_frozen is not frozen and not frozen.logits.flags.writeable
        assert np.array_equal(frozen.logits, before)
        assert not np.array_equal(trained_frozen.logits, before)
        assert np.array_equal(trained_frozen.logits, trained.logits)


@pytest.fixture(scope="module")
def toy_stages():
    """Two 13-pair stages of the forged toy corpus: every batch size below
    but 17 leaves a short last batch, and 17 exceeds a stage."""
    curriculum = forge(toy_corpus(), seed=7).curriculum
    stages = [(name, pairs[:13]) for name, pairs in curriculum.stages[:2]]
    return CurriculumDataset(stages=stages, order=curriculum.order)


def record_bits(record):
    """A record with every float as its exact hex form, so -0.0 differs from 0.0."""
    values = (record.loss, record.margin, record.accuracy, record.weighted_margin, record.grad_norm)
    return (record.stage, record.epoch, record.step, *map(float.hex, values))


class TestPlannedStepMatchesPerStepOracle:
    @pytest.mark.parametrize("refresh", [True, False])
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 8, 9, 17])
    @pytest.mark.parametrize("mode", ["dpo", "dpo_act", "dpo_fin", "hin_dpo"])
    def test_logits_and_records_bit_equal(self, toy_stages, mode, batch_size, refresh):
        # The per-step oracle takes its statistics with np.mean and its
        # gradient norm with np.linalg.norm; batches of 9 and 13 pairs sum
        # past numpy's 8-element unrolled block.
        policy = BigramPolicy.new(vocab_from_pairs(toy_stages.all_pairs()), seed=4, noise_std=0.3)
        config = toy_train_config(
            mode, batch_size=batch_size, epochs_per_stage=2, seed=11, refresh_reference_per_stage=refresh
        )
        expected, expected_log = oracles.per_step_train(toy_stages, policy.copy(), config)
        trained, log = train(toy_stages, policy, config)
        assert trained.logits.tobytes() == expected.logits.tobytes()
        assert [asdict(r) for r in log.records] == [asdict(r) for r in expected_log.records]
        assert list(map(record_bits, log.records)) == list(map(record_bits, expected_log.records))


def test_one_plan_per_epoch_and_one_step_call_per_step(monkeypatch):
    calls = {"plan": 0, "loss_steps": 0}
    plan, step = trainer.plan_runs, trainer.loss_steps

    def counting_plan(*args, **kwargs):
        calls["plan"] += 1
        return plan(*args, **kwargs)

    def counting_step(*args, **kwargs):
        calls["loss_steps"] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(trainer, "plan_runs", counting_plan)
    monkeypatch.setattr(trainer, "loss_steps", counting_step)
    curriculum = two_stage_curriculum()
    config = toy_train_config("hin_dpo", batch_size=3, epochs_per_stage=4)
    _, log = train(curriculum, BigramPolicy.new(vocab_from_pairs(curriculum.all_pairs())), config)
    assert calls == {"plan": 2 * 4, "loss_steps": len(log.records)}
    assert len(log.records) == 2 * 4 * 4  # ten pairs a stage: batches of 3, 3, 3 and 1


def test_every_mode_trains_in_the_order_of_plain_dpo(monkeypatch):
    # Finesse draws from its own generator, so a finesse run alone permutes
    # its pairs as plain dpo does, epoch by epoch, across stages.
    plan = trainer.plan_runs
    orders = {}

    def recording_plan(encoded, order, *args):
        orders[mode].append(np.array(order))
        return plan(encoded, order, *args)

    monkeypatch.setattr(trainer, "plan_runs", recording_plan)
    curriculum = two_stage_curriculum()
    for mode in ("dpo", "hin_dpo"):
        orders[mode] = []
        policy = BigramPolicy.new(vocab_from_pairs(curriculum.all_pairs()), seed=4, noise_std=0.3)
        train(curriculum, policy, toy_train_config(mode, batch_size=3, epochs_per_stage=3, seed=5))
    assert len(orders["dpo"]) == 2 * 3
    assert list(map(np.ndarray.tolist, orders["hin_dpo"])) == list(map(np.ndarray.tolist, orders["dpo"]))


@functools.lru_cache(maxsize=None)
def demo_inputs(seed, order):
    """The curriculum and base policy ``hindpo demo --seed <seed>`` trains on."""
    result = forge(toy_corpus(), order=order, seed=seed)
    pairs = result.curriculum.all_pairs() + result.val_pairs + result.test_pairs
    return result.curriculum, BigramPolicy.new(vocab_from_pairs(pairs), seed=seed, noise_std=0.01)


def texts_of(pairs):
    return {text for pair in pairs for text in (pair.prompt, pair.preferred, pair.rejected)}


class TestTokenizeOncePerText:
    """``vocab_from_pairs``, ``encode_pairs`` and ``train_modes`` tokenize
    each distinct text once per call and return what tokenizing every
    text of every pair returns."""

    @staticmethod
    def count_tokenize(monkeypatch):
        calls = []

        def tokenize(text):
            calls.append(text)
            return textmetrics.tokenize(text)

        monkeypatch.setattr(trainer, "tokenize", tokenize)
        return calls

    def test_vocab_from_pairs(self, monkeypatch):
        pairs = demo_inputs(7, "algorithm1")[0].all_pairs()
        assert len(texts_of(pairs)) < 3 * len(pairs)
        calls = self.count_tokenize(monkeypatch)
        vocab = vocab_from_pairs(pairs)
        assert sorted(calls) == sorted(texts_of(pairs))
        assert vocab == oracles.vocab_per_pair(pairs)

    def test_encode_pairs_gives_every_example_its_own_lists(self, monkeypatch):
        pairs = demo_inputs(7, "algorithm1")[0].all_pairs()
        calls = self.count_tokenize(monkeypatch)
        examples = encode_pairs(pairs)
        assert sorted(calls) == sorted(texts_of(pairs))
        assert list(map(vars, examples)) == list(map(vars, oracles.encode_pairs_per_pair(pairs)))
        lists = [tokens for e in examples for tokens in (e.prompt, e.preferred, e.rejected)]
        assert len({id(tokens) for tokens in lists}) == len(lists)

    def test_train_modes_tokenizes_the_curriculum_once(self, monkeypatch):
        curriculum, base = demo_inputs(7, "algorithm1")
        config = TrainConfig(seed=7, epochs_per_stage=2)
        monkeypatch.setattr(trainer, "encode_pairs", oracles.encode_pairs_per_pair)
        expected = train_modes(curriculum, base, config, MODES)
        monkeypatch.undo()
        calls = self.count_tokenize(monkeypatch)
        runs = train_modes(curriculum, base, config, MODES)
        assert sorted(calls) == sorted(texts_of(curriculum.all_pairs()))
        for (trained, log), (want, want_log) in zip(runs, expected):
            assert trained.logits.tobytes() == want.logits.tobytes()
            assert list(map(record_bits, log.records)) == list(map(record_bits, want_log.records))


def test_a_run_without_finesse_is_scored_with_neutral_variances(monkeypatch):
    # The examples are shared by the runs, and a finesse run writes its
    # estimates into them; the dpo run beside it must not pick them up.
    captured = []
    real_encode = trainer.encode_runs

    def recording_encode(examples, policy, reference, variances):
        captured.append([list(v) for v in variances])
        return real_encode(examples, policy, reference, variances)

    monkeypatch.setattr(trainer, "encode_runs", recording_encode)
    curriculum = two_stage_curriculum()
    policy = BigramPolicy.new(vocab_from_pairs(curriculum.all_pairs()), seed=4, noise_std=0.3)
    train_modes(curriculum, policy, toy_train_config(epochs_per_stage=2), ["dpo_fin", "dpo"])
    assert len(captured) == len(curriculum.stages)
    for (finesse, plain), (_, pairs) in zip(captured, curriculum.stages):
        assert plain == [0.0] * len(pairs)
        assert len(finesse) == len(pairs) and finesse != plain


class TestLockstepMatchesOneModeTraining:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "order, overrides",
        [
            ("algorithm1", {"batch_size": 3}),
            ("algorithm1", {"batch_size": 9}),
            ("algorithm1", {"refresh_reference_per_stage": False}),
            ("section4", {}),
        ],
        ids=["batch3", "batch9", "no-refresh", "section4"],
    )
    def test_every_mode_bit_equal(self, seed, order, overrides):
        # A batch of 3 leaves a short last batch in every stage; 9 pairs a
        # run sum past numpy's 8-element unrolled block.
        curriculum, base = demo_inputs(seed, order)
        config = TrainConfig(seed=seed, **overrides)
        runs = train_modes(curriculum, base.copy(), config, MODES)
        for mode, (trained, log) in zip(MODES, runs):
            mode_config = replace(config, loss=LossConfig(mode=mode))
            for expected, expected_log in (
                train(curriculum, base.copy(), mode_config),
                oracles.per_step_train(curriculum, base.copy(), mode_config),
            ):
                assert trained.logits.tobytes() == expected.logits.tobytes(), mode
                assert list(map(record_bits, log.records)) == list(map(record_bits, expected_log.records)), mode

    def test_run_zero_trains_a_new_policy_and_the_callers_array_stays(self):
        curriculum = two_stage_curriculum()
        policy = BigramPolicy.new(vocab_from_pairs(curriculum.all_pairs()), seed=4, noise_std=0.3)
        original = policy.logits
        before = original.copy()
        runs = train_modes(curriculum, policy, toy_train_config(epochs_per_stage=2), ["dpo_fin", "dpo", "dpo_fin"])
        assert runs[0][0] is not policy and policy.logits is original
        assert np.array_equal(original, before)
        assert runs[0][0].logits.tobytes() == runs[2][0].logits.tobytes()
        assert not np.array_equal(runs[0][0].logits, runs[1][0].logits)
        assert [asdict(r) for r in runs[0][1].records] == [asdict(r) for r in runs[2][1].records]

    def test_no_mode_rejected_before_the_policy_changes(self):
        curriculum, policy = separable_setup()
        original = policy.logits
        with pytest.raises(ValueError, match="at least one mode"):
            train_modes(curriculum, policy, toy_train_config(), [])
        assert policy.logits is original

    def test_a_mode_string_in_place_of_a_sequence_rejected(self):
        curriculum, policy = separable_setup()
        with pytest.raises(ValueError, match="^train_modes needs a sequence of at least one mode, got 'dpo'$"):
            train_modes(curriculum, policy, toy_train_config(), "dpo")

    def test_one_plan_per_epoch_and_one_step_call_per_step_for_every_run(self, monkeypatch):
        calls = {"plan": 0, "loss_steps": 0}
        plan, step = trainer.plan_runs, trainer.loss_steps

        def counting_plan(*args, **kwargs):
            calls["plan"] += 1
            return plan(*args, **kwargs)

        def counting_step(*args, **kwargs):
            calls["loss_steps"] += 1
            return step(*args, **kwargs)

        monkeypatch.setattr(trainer, "plan_runs", counting_plan)
        monkeypatch.setattr(trainer, "loss_steps", counting_step)
        curriculum = two_stage_curriculum()
        config = toy_train_config(batch_size=3, epochs_per_stage=4)
        runs = train_modes(curriculum, BigramPolicy.new(vocab_from_pairs(curriculum.all_pairs())), config, MODES)
        assert calls == {"plan": 2 * 4, "loss_steps": 2 * 4 * 4}
        assert [len(log.records) for _, log in runs] == [2 * 4 * 4] * len(MODES)


class TestCallersPolicyOnlyRead:
    @pytest.mark.parametrize("frozen", [False, True], ids=["policy", "snapshot"])
    @pytest.mark.parametrize("modes", [None, MODES], ids=["train", "train_modes"])
    def test_the_caller_keeps_its_table_and_every_run_is_new(self, modes, frozen):
        curriculum = two_stage_curriculum()
        policy = BigramPolicy.new(vocab_from_pairs(curriculum.all_pairs()), seed=4, noise_std=0.3)
        if frozen:
            policy = policy.snapshot()
        original = policy.logits
        before = original.tobytes()
        config = toy_train_config(epochs_per_stage=2)
        runs = [train(curriculum, policy, config)] if modes is None else train_modes(curriculum, policy, config, modes)
        assert policy.logits is original and original.tobytes() == before
        assert original.flags.writeable is not frozen
        trained = [run for run, _ in runs]
        assert len(trained) == (1 if modes is None else len(modes))
        assert len({id(run) for run in [policy, *trained]}) == len(trained) + 1
        for run in trained:
            assert run.vocab == policy.vocab and run.logits.flags.writeable
            assert not np.shares_memory(run.logits, original)
            assert run.logits.tobytes() != before

    @pytest.mark.parametrize("refresh", [True, False])
    def test_a_stage_reads_its_reference_from_the_live_table_or_one_copy(self, monkeypatch, refresh):
        # With refresh, each stage scores its pairs against the live stacked
        # table as the stage starts, before its first step; without, every
        # stage reads the one copy of the initial table made at entry.
        events = []
        real_encode, real_step = trainer.encode_runs, trainer.loss_steps

        def recording_encode(examples, policy, reference, variances):
            events.append(("encode", reference, reference.copy()))
            return real_encode(examples, policy, reference, variances)

        def recording_step(plan, b, logits):
            events.append(("step", logits, logits.copy()))
            return real_step(plan, b, logits)

        monkeypatch.setattr(trainer, "encode_runs", recording_encode)
        monkeypatch.setattr(trainer, "loss_steps", recording_step)
        curriculum = two_stage_curriculum()
        policy = BigramPolicy.new(vocab_from_pairs(curriculum.all_pairs()), seed=4, noise_std=0.3)
        config = toy_train_config(epochs_per_stage=2, refresh_reference_per_stage=refresh)
        initial = np.tile(policy.logits, (len(MODES), 1))
        train_modes(curriculum, policy, config, MODES)
        live = events[1][1]
        assert all(table is live for kind, table, _ in events if kind == "step")
        encodes = [i for i, (kind, _, _) in enumerate(events) if kind == "encode"]
        assert len(encodes) == 2
        for i in encodes:
            _, reference, values = events[i]
            if refresh:
                assert reference is live and values.tobytes() == events[i + 1][2].tobytes()
            else:
                assert reference is events[0][1] and reference is not live and reference.base is None
                assert values.tobytes() == initial.tobytes()
        if refresh:
            assert events[encodes[1]][2].tobytes() != initial.tobytes()  # the first stage moved the table


def corrupt(plan, b, result, field, value):
    """A step's (visited, gradient) with its gradient, or its row of the
    plan's statistics table for every run, set to ``value``."""
    visited, gradient = result
    if field == "gradient":
        return visited, np.full_like(gradient, value)
    plan.stats[b, STATS.index(field)] = value
    return result


class TestRaiseBeforeUpdate:
    """A real planned step whose third result is made non-finite: train
    raises naming the step, before the live table, seen through the
    ``logits`` argument of ``loss_steps``, takes it. Records are built
    from an epoch's statistics table when the epoch ends, so no step of
    the failing epoch is logged."""

    @pytest.mark.parametrize(
        "field, value, learning_rate, message",
        [
            ("loss", float("nan"), 0.5, "non-finite loss"),
            ("gradient", np.nan, 0.5, "non-finite gradient"),
            ("gradient", 1e308, 4.0, "non-finite logits after the update"),
            ("grad_norm", float("inf"), 0.5, "non-finite gradient norm"),
            ("margin", float("inf"), 0.5, "non-finite margin"),
        ],
        ids=["loss", "gradient", "logits", "norm", "margin"],
    )
    def test_third_step_raises_unapplied_and_unlogged(self, monkeypatch, field, value, learning_rate, message):
        curriculum, policy = separable_setup()
        seen, tables, logged = [], [], []
        real, real_record = trainer.loss_steps, trainer.TrainStepRecord

        def corrupt_third(plan, b, logits):
            seen.append(logits.copy())
            tables.append(logits)
            result = real(plan, b, logits)
            return corrupt(plan, b, result, field, value) if len(seen) == 3 else result

        def record(*args):
            logged.append(args)
            return real_record(*args)

        monkeypatch.setattr(trainer, "loss_steps", corrupt_third)
        monkeypatch.setattr(trainer, "TrainStepRecord", record)
        with pytest.raises(TrainingError, match="^%s at stage 'B_H' epoch 1 step 3$" % message):
            train(curriculum, policy, toy_train_config(learning_rate=learning_rate))
        assert len(seen) == 3 and logged == []
        assert tables[2] is tables[0] and tables[2].tobytes() == seen[2].tobytes()
        assert not np.array_equal(seen[2], seen[1])

    def test_a_later_epoch_logs_the_epochs_before_it(self, monkeypatch):
        curriculum, policy = separable_setup()
        config = toy_train_config(epochs_per_stage=3)
        _, full_log = train(curriculum, policy, config)
        per_epoch = sum(r.epoch == 1 and r.stage == full_log.records[0].stage for r in full_log.records)
        seen, tables, logged = [], [], []
        real, real_record = trainer.loss_steps, trainer.TrainStepRecord

        def corrupt_first_of_epoch_two(plan, b, logits):
            seen.append(logits.copy())
            tables.append(logits)
            result = real(plan, b, logits)
            return corrupt(plan, b, result, "loss", float("nan")) if len(seen) == per_epoch + 1 else result

        def record(*args):
            logged.append(args)
            return real_record(*args)

        monkeypatch.setattr(trainer, "loss_steps", corrupt_first_of_epoch_two)
        monkeypatch.setattr(trainer, "TrainStepRecord", record)
        stage = full_log.records[0].stage
        with pytest.raises(TrainingError, match="^non-finite loss at stage %r epoch 2 step %d$" % (stage, per_epoch + 1)):
            train(curriculum, policy, config)
        assert [args[:3] for args in logged] == [(stage, 1, step) for step in range(1, per_epoch + 1)]
        assert tables[-1] is tables[0] and tables[-1].tobytes() == seen[-1].tobytes()


    def test_a_later_run_raises_naming_its_mode_and_no_run_steps(self, monkeypatch):
        curriculum, policy = separable_setup()
        seen, tables, logged = [], [], []
        real, real_record = trainer.loss_steps, trainer.TrainStepRecord

        def corrupt_third(plan, b, logits):
            seen.append(logits.copy())
            tables.append(logits)
            result = real(plan, b, logits)
            return corrupt(plan, b, result, "margin", [0.0, float("nan"), 0.0]) if len(seen) == 3 else result

        def record(*args):
            logged.append(args)
            return real_record(*args)

        monkeypatch.setattr(trainer, "loss_steps", corrupt_third)
        monkeypatch.setattr(trainer, "TrainStepRecord", record)
        with pytest.raises(TrainingError, match="^non-finite margin in mode 'hin_dpo' at stage 'B_H' epoch 1 step 3$"):
            train_modes(curriculum, policy, toy_train_config(), ["dpo", "hin_dpo", "dpo_act"])
        assert len(seen) == 3 and logged == []
        assert tables[2] is tables[0] and tables[2].tobytes() == seen[2].tobytes()
        assert not np.array_equal(seen[2], seen[1])


class TestUpdatedLogitsCheckedByOneSum:
    """A step's updated rows are checked by one sum, and entry by entry
    only when that sum is not finite."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_finite_rows_whose_sum_overflows_still_train(self, sign):
        # Every entry of the table is ±1e308, so every row is uniform and a
        # step's updated rows are finite while their sum overflows.
        curriculum, policy = separable_setup()
        policy.logits[:] = sign * 1e308
        config = toy_train_config(epochs_per_stage=2)
        want, want_log = oracles.per_step_train(curriculum, policy.copy(), config)
        trained, log = train(curriculum, policy, config)
        assert np.isfinite(trained.logits).all()
        with np.errstate(over="ignore"):
            assert np.add.reduce(trained.logits[:2], axis=None) == sign * np.inf
        assert trained.logits.tobytes() == want.logits.tobytes()
        assert [asdict(r) for r in log.records] == [asdict(r) for r in want_log.records]

    @pytest.mark.parametrize(
        "modes, run, value, message",
        [
            (["dpo"], 0, float("nan"), "non-finite logits after the update at"),
            (["dpo"], 0, float("inf"), "non-finite logits after the update at"),
            (["dpo", "hin_dpo", "dpo_act"], 1, float("-inf"), "non-finite logits after the update in mode 'hin_dpo' at"),
        ],
        ids=["nan", "inf", "later-run"],
    )
    def test_one_non_finite_updated_logit_raises_before_any_run_changes(self, monkeypatch, modes, run, value, message):
        curriculum, policy = separable_setup()
        seen, tables, logged = [], [], []
        real, real_record = trainer.loss_steps, trainer.TrainStepRecord

        def corrupt_third(plan, b, logits):
            seen.append(logits.copy())
            tables.append(logits)
            visited, gradient = real(plan, b, logits)
            if len(seen) == 3:
                # One entry of the run's first visited row; the gradient stays finite.
                visited[run * len(visited) // len(modes), 1] = value
            return visited, gradient

        def record(*args):
            logged.append(args)
            return real_record(*args)

        monkeypatch.setattr(trainer, "loss_steps", corrupt_third)
        monkeypatch.setattr(trainer, "TrainStepRecord", record)
        with pytest.raises(TrainingError, match="^%s stage 'B_H' epoch 1 step 3$" % re.escape(message)):
            train_modes(curriculum, policy, toy_train_config(), modes)
        assert len(seen) == 3 and logged == []
        assert tables[2].tobytes() == seen[2].tobytes()
        assert not np.array_equal(seen[2], seen[1])


class TestPairsCheckedBeforeTraining:
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("s_w", 7.0, "s_w must be <= 1, got 7.0"),
            ("s_w", "x", "s_w must be a number or null, got 'x'"),
            ("prompt", 5, "prompt must be a string, got 5"),
        ],
        ids=["s_w-out-of-range", "s_w-str", "prompt-int"],
    )
    def test_bad_pair_raises_naming_it_and_leaves_the_policy(self, name, value, message):
        curriculum, policy = separable_setup()
        setattr(curriculum.stages[0][1][0], name, value)
        logits = policy.logits
        before = logits.copy()
        with pytest.raises(SchemaError, match="^%s$" % re.escape("pair 'sep-000': " + message)):
            train(curriculum, policy, toy_train_config("hin_dpo"))
        assert policy.logits is logits and np.array_equal(logits, before)


class TestDeterminism:
    def test_identical_runs(self):
        results = []
        for _ in range(2):
            curriculum, policy = separable_setup()
            trained, log = train(curriculum, policy, toy_train_config("hin_dpo"))
            results.append((trained.logits.copy(), [asdict(r) for r in log.records]))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]


def two_stage_curriculum():
    full = separable_curriculum(n_pairs=20, seed=2)
    pairs = full.all_pairs()
    return CurriculumDataset(
        stages=[("B_L", pairs[:10]), ("B_H", pairs[10:])], order="algorithm1"
    )


class TestStages:
    def test_log_follows_curriculum_order(self):
        curriculum = two_stage_curriculum()
        vocab = vocab_from_pairs(curriculum.all_pairs())
        _, log = train(curriculum, BigramPolicy.new(vocab), toy_train_config(epochs_per_stage=2))
        assert [stage for stage, _ in groupby(r.stage for r in log.records)] == ["B_L", "B_H"]
        steps = [r.step for r in log.records]
        assert steps == list(range(1, len(steps) + 1))

    def test_reference_refresh_zeroes_stage_two_margins(self):
        curriculum = two_stage_curriculum()
        vocab = vocab_from_pairs(curriculum.all_pairs())
        _, log = train(curriculum, BigramPolicy.new(vocab), toy_train_config(epochs_per_stage=3))
        first_stage2 = next(r for r in log.records if r.stage == "B_H")
        assert first_stage2.margin == 0.0

    def test_no_refresh_keeps_margins(self):
        curriculum = two_stage_curriculum()
        vocab = vocab_from_pairs(curriculum.all_pairs())
        _, log = train(
            curriculum,
            BigramPolicy.new(vocab),
            toy_train_config(epochs_per_stage=3, refresh_reference_per_stage=False),
        )
        first_stage2 = next(r for r in log.records if r.stage == "B_H")
        assert first_stage2.margin > 0.0

    def test_refresh_changes_subsequent_ratios(self):
        # After a stage moves the policy, refreshing the reference resets
        # the preferred-side log-ratio toward zero.
        curriculum = two_stage_curriculum()
        vocab = vocab_from_pairs(curriculum.all_pairs())
        policy = BigramPolicy.new(vocab)
        initial = policy.snapshot()
        trained, _ = train(
            curriculum, policy, toy_train_config(epochs_per_stage=3)
        )
        examples = encode_pairs(curriculum.all_pairs())
        config = LossConfig(beta=0.6)
        margin_vs_initial = loss_gradient(encode_examples(examples, trained, initial), trained, config).margin
        margin_vs_refreshed = loss_gradient(
            encode_examples(examples, trained, trained.snapshot()), trained, config
        ).margin
        assert margin_vs_initial > 0.0
        assert margin_vs_refreshed == 0.0

    def test_empty_stage_rejected(self):
        curriculum = CurriculumDataset(stages=[("B_L", [])], order="algorithm1")
        vocab = vocab_from_pairs(separable_curriculum(n_pairs=2).all_pairs())
        with pytest.raises(TrainingError, match="empty"):
            train(curriculum, BigramPolicy.new(vocab), toy_train_config())

    def test_no_stages_rejected(self):
        vocab = vocab_from_pairs(separable_curriculum(n_pairs=2).all_pairs())
        with pytest.raises(TrainingError):
            train(CurriculumDataset(stages=[], order="algorithm1"), BigramPolicy.new(vocab), toy_train_config())

    def test_overflowing_update_aborts_before_log_and_checkpoint(self):
        # A finite gradient times a huge learning rate overflows the logits;
        # the step must stop before the policy takes them.
        curriculum = separable_curriculum(n_pairs=6)
        policy = BigramPolicy.new(vocab_from_pairs(curriculum.all_pairs()))
        before = policy.logits.copy()
        with pytest.raises(TrainingError, match="non-finite logits after the update .* step 1$"):
            train(curriculum, policy, TrainConfig(learning_rate=1e308))
        assert np.array_equal(policy.logits, before)

    @pytest.mark.parametrize("mode", ["dpo", "hin_dpo"])
    def test_overflowing_gradient_norm_raises_without_a_warning(self, mode):
        # beta * mult / 2 ~ 1e200 keeps the loss, gradient and updated logits
        # finite, but the gradient's squares overflow.
        curriculum = separable_curriculum(n_pairs=20, seed=1)
        policy = BigramPolicy.new(vocab_from_pairs(curriculum.all_pairs()))
        config = TrainConfig(loss=LossConfig(mode=mode, beta=1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match="^non-finite gradient norm at stage 'B_H' epoch 1 step 1$"):
                train(curriculum, policy, config)


class TestTrainLog:
    def test_save_jsonl(self, tmp_path):
        curriculum, policy = separable_setup()
        _, log = train(curriculum, policy, toy_train_config(epochs_per_stage=1))
        path = log.save(tmp_path / "log.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(log.records)
        first = json.loads(lines[0])
        assert list(first) == [
            "stage", "epoch", "step", "loss", "margin", "accuracy", "weighted_margin", "grad_norm"
        ]

    def test_records_carry_the_step_diagnostics(self):
        # Each batch holds the whole single-stage curriculum, so step 2's
        # record must match the step computed from the policy after step 1
        # (a one-epoch run, which draws the same generator stream up to
        # there) against the initial reference.
        curriculum, policy = separable_setup("hin_dpo", preferred_actuality=0.9, rejected_actuality=0.3)
        pairs = curriculum.all_pairs()
        config = toy_train_config("hin_dpo", epochs_per_stage=2, batch_size=len(pairs))
        reference = policy.snapshot()
        examples = encode_pairs(pairs)
        attach_finesse(examples, policy, config.loss, np.random.default_rng(config.seed))
        after_first, _ = train(curriculum, policy, replace(config, epochs_per_stage=1))
        _, log = train(curriculum, policy, config)
        step = loss_gradient(encode_examples(examples, after_first, reference), after_first, config.loss)
        second = log.records[1]
        assert second.weighted_margin == pytest.approx(step.weighted_margin, rel=1e-12)
        assert second.weighted_margin > second.margin > 0.0
        assert second.grad_norm == pytest.approx(np.linalg.norm(step.gradient), rel=1e-12)
        assert second.grad_norm > 0.0

    def test_failed_save_keeps_the_earlier_file(self, tmp_path):
        curriculum, policy = separable_setup()
        _, log = train(curriculum, policy, toy_train_config(epochs_per_stage=1))
        path = log.save(tmp_path / "log.jsonl")
        before = path.read_bytes()
        log.records[3].loss = object()  # not JSON: fails after three lines are written
        with pytest.raises(TypeError):
            log.save(path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        log.records[3].loss = 0.25
        assert log.save(path).read_bytes() != before
        assert list(tmp_path.iterdir()) == [path]


_SPECIAL_FLOATS = [-0.0, 5e-324, 1e16, 0.1, float("nan"), float("inf"), float("-inf")]
_FLOAT_FIELD = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from(_SPECIAL_FLOATS),
    st.sampled_from(_SPECIAL_FLOATS).map(np.float64),
    st.integers(),
)
_RECORDS = st.builds(
    TrainStepRecord,
    stage=st.one_of(st.text(), st.sampled_from(["B_L", "बकेट", 'q"uote', "back\\slash", "tab\tnew\nline", "é\u2028"])),
    epoch=st.one_of(st.integers(), st.booleans()),
    step=st.integers(min_value=0),
    loss=_FLOAT_FIELD,
    margin=_FLOAT_FIELD,
    accuracy=_FLOAT_FIELD,
    weighted_margin=_FLOAT_FIELD,
    grad_norm=_FLOAT_FIELD,
)


class TestTrainLogBytes:
    # TrainLog.save against one json.dumps per record (tests/oracles.py).
    @settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(_RECORDS, max_size=8))
    @example(records=[TrainStepRecord("B_L", 1, 1, *_SPECIAL_FLOATS[:5]), TrainStepRecord("B_L", 1, 2, *_SPECIAL_FLOATS[2:])])
    @example(records=[TrainStepRecord("ऊ\"\\", 2, 3, *map(np.float64, _SPECIAL_FLOATS[:5])), TrainStepRecord("B_M", 2, 4, 1, -0.0, 0, 2, 10**30)])
    def test_bytes_match_one_json_dumps_per_record(self, tmp_path, records):
        path = TrainLog(records).save(tmp_path / "log.jsonl")
        assert path.read_bytes() == "".join(map(oracles.trainlog_line, records)).encode("utf-8")

    def test_an_extra_or_moved_attribute_is_written_as_json_dumps_writes_it(self, tmp_path):
        extra, moved = (TrainStepRecord("B_L", 1, step, 0.5, 0.25, 1.0, 0.125, 2.0) for step in (1, 2))
        extra.note = "x"
        del moved.loss
        moved.loss = 0.5
        path = TrainLog([extra, moved]).save(tmp_path / "log.jsonl")
        assert path.read_bytes() == (oracles.trainlog_line(extra) + oracles.trainlog_line(moved)).encode("utf-8")
        assert [list(json.loads(line))[-1] for line in path.read_text(encoding="utf-8").splitlines()] == ["note", "loss"]

    def test_plain_records_never_call_json_dumps(self, tmp_path, monkeypatch):
        # Records of the field types go through the line template alone.
        encoded = []

        def dumps(obj, **kwargs):
            encoded.append(obj)
            return json.dumps(obj, **kwargs)

        stages = ["B_L"] * 3 + ["B_M"] * 2
        records = [TrainStepRecord(stage, 1, step, 0.5, 0.25, 1.0, 0.125, 2.0) for step, stage in enumerate(stages)]
        monkeypatch.setattr(fileio, "json", types.SimpleNamespace(dumps=dumps))
        path = TrainLog(records).save(tmp_path / "log.jsonl")
        monkeypatch.undo()
        assert path.read_bytes() == "".join(map(oracles.trainlog_line, records)).encode("utf-8")
        assert encoded == []

    @pytest.mark.parametrize("value", [object(), np.float32(0.5), np.int64(3), "0.5"])
    def test_a_non_float_value_writes_or_fails_as_json_dumps_does(self, tmp_path, value):
        records = [TrainStepRecord("B_L", 1, step, 0.5, 0.25, 1.0, 0.125, 2.0) for step in range(1, 4)]
        records[2].margin = value
        try:
            expected = oracles.trainlog_line(records[2])
        except TypeError as error:
            with pytest.raises(TypeError, match=re.escape(str(error))):
                TrainLog(records).save(tmp_path / "log.jsonl")
            assert list(tmp_path.iterdir()) == []
        else:
            path = TrainLog(records).save(tmp_path / "log.jsonl")
            assert path.read_bytes().decode("utf-8").splitlines(keepends=True)[2] == expected


class TestGradcheck:
    def make_fixture(self, seed):
        rng = np.random.default_rng(seed)
        curriculum = separable_curriculum(n_pairs=4, seed=seed)
        vocab = vocab_from_pairs(curriculum.all_pairs())
        policy = BigramPolicy(vocab, rng.normal(0, 1, (len(vocab), len(vocab))))
        reference = BigramPolicy(vocab, rng.normal(0, 1, (len(vocab), len(vocab)))).snapshot()
        examples = encode_pairs(curriculum.all_pairs())
        for example in examples:
            example.preferred_actuality = float(rng.uniform(0, 1))
            example.rejected_actuality = float(rng.uniform(0, 1))
            example.effective_variance = float(rng.uniform(0, 1))
        return policy, reference, examples

    def test_dpo_mode(self):
        policy, reference, examples = self.make_fixture(151)
        assert gradcheck(policy, examples, LossConfig(mode="dpo"), reference) < 1e-5

    def test_hin_dpo_mode(self):
        policy, reference, examples = self.make_fixture(157)
        assert gradcheck(policy, examples, LossConfig(mode="hin_dpo"), reference) < 1e-5

    def test_zero_logit_sigma_zero_case(self):
        # Policy equals reference: u = 0, so the analytic coefficient is
        # exactly beta / 2 and finite differences agree tightly.
        curriculum = separable_curriculum(n_pairs=2, seed=3)
        vocab = vocab_from_pairs(curriculum.all_pairs())
        policy = BigramPolicy.new(vocab)
        examples = encode_pairs(curriculum.all_pairs())
        config = LossConfig(mode="hin_dpo", epsilon=1.0)
        for example in examples:
            example.preferred_actuality = 0.0
            example.rejected_actuality = 1.0
            example.effective_variance = 0.0
        assert gradcheck(policy, examples, config) < 1e-6

    def test_empty_batch_rejected(self):
        curriculum, policy = separable_setup()
        with pytest.raises(ValueError):
            gradcheck(policy, [], LossConfig())

    @pytest.mark.parametrize(
        "h, problem",
        [(0, "> 0"), (0.0, "> 0"), (-1e-5, "> 0"), (float("nan"), "finite"), (float("inf"), "finite"), ("x", "a number"), (True, "a number")],
        ids=["0", "0.0", "negative", "nan", "inf", "str", "bool"],
    )
    def test_step_that_is_not_a_finite_positive_number_rejected(self, h, problem):
        policy, reference, examples = self.make_fixture(151)
        with pytest.raises(ValueError, match="^h must be %s, got %s$" % (problem, re.escape(repr(h)))):
            gradcheck(policy, examples, LossConfig(mode="dpo"), reference, h=h)

    def test_frozen_policy_checked_and_unwritten(self):
        policy, reference, examples = self.make_fixture(151)
        frozen = policy.snapshot()
        error = gradcheck(frozen, examples, LossConfig(mode="dpo"), reference)
        assert error == gradcheck(policy, examples, LossConfig(mode="dpo"), reference) < 1e-5
        assert np.array_equal(frozen.logits, policy.logits)
        assert not frozen.logits.flags.writeable


class TestToyCorpusEndToEnd:
    def test_full_curriculum_trains(self):
        result = forge(toy_corpus(), seed=7)
        pairs = result.curriculum.all_pairs() + result.val_pairs + result.test_pairs
        vocab = vocab_from_pairs(pairs)
        policy = BigramPolicy.new(vocab, seed=7, noise_std=0.01)
        initial = policy.snapshot()
        config = toy_train_config("hin_dpo", epochs_per_stage=3, seed=7)
        trained, log = train(result.curriculum, policy, config)
        assert [stage for stage, _ in groupby(r.stage for r in log.records)] == ["B_L", "B_M", "B_H"]
        examples = encode_pairs(result.curriculum.all_pairs())
        step = loss_gradient(encode_examples(examples, trained, initial), trained, LossConfig(beta=0.6))
        margin, accuracy = step.margin, step.accuracy
        assert margin > 0.0
        assert accuracy > 0.8


# Forge 48 generated articles over 300 words (V = 302, as the benchmark's
# wide_vocab workload), train dpo and hin_dpo in lockstep for two epochs a
# stage and write both trainlogs into the directory given as argv[1].
_WIDE_VOCAB_RUN = """
import sys
from pathlib import Path

import numpy as np

from hindpo.dataforge import ArticleRecord, Candidate, forge
from hindpo.policy import BigramPolicy
from hindpo.trainer import TrainConfig, train_modes, vocab_from_pairs

rng = np.random.default_rng(3)
words = ["w%03d" % i for i in range(300)]
tiling = [words[i] for i in rng.permutation(300)]
records = []
for k in range(48):
    truth = [words[i] for i in rng.integers(0, 300, 8 + k % 9)]
    near = [w if rng.random() > 0.1 else words[rng.integers(0, 300)] for w in truth]
    partial = truth[: len(truth) // 2] + [words[i] for i in rng.integers(0, 300, len(truth) - len(truth) // 2)]
    unrelated = [words[i] for i in rng.integers(0, 300, len(truth))]
    records.append(ArticleRecord(
        id="a%02d" % k, label="fake" if k % 2 else "real",
        news_text=" ".join(tiling[(12 * k + j) % 300] for j in range(12)),
        ground_truth_explanation=" ".join(truth),
        candidates=[Candidate("m%d" % i, " ".join(text)) for i, text in enumerate((near, partial, unrelated))],
    ))
result = forge(records, seed=0)
pairs = result.curriculum.all_pairs() + result.val_pairs + result.test_pairs
policy = BigramPolicy.new(vocab_from_pairs(pairs), seed=0, noise_std=0.01)
assert len(policy.vocab) == 302
config = TrainConfig(epochs_per_stage=2, learning_rate=0.5)
for mode, (_, log) in zip(("dpo", "hin_dpo"), train_modes(result.curriculum, policy, config, ["dpo", "hin_dpo"])):
    log.save(Path(sys.argv[1]) / ("trainlog_%s.jsonl" % mode))
"""


def test_trainlogs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product longer than 10,000 elements over its
    # threads, and wide_vocab's gradient blocks are longer. A process
    # allowed only one CPU runs one BLAS thread either way, so there this
    # test cannot tell the two apart.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(trainer.__file__).resolve().parents[1])
    logs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", _WIDE_VOCAB_RUN, str(out)], env=env, check=True, timeout=300)
        logs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert list(logs[0]) == ["trainlog_dpo.jsonl", "trainlog_hin_dpo.jsonl"]
    assert logs[0] == logs[1]
