from dataclasses import asdict

import numpy as np
import pytest

from hindpo.corpora import separable_curriculum, toy_corpus
from hindpo.dataforge import CurriculumDataset, forge
from hindpo.losses import LossConfig, LossStep, loss_gradient
from hindpo.policy import EOS, BigramPolicy
from hindpo.trainer import (
    TOY_LEARNING_RATE,
    TrainConfig,
    TrainingError,
    attach_finesse,
    encode_pairs,
    gradcheck,
    train,
    vocab_from_pairs,
)


def toy_train_config(mode="dpo", **overrides):
    defaults = dict(
        epochs_per_stage=10,
        learning_rate=TOY_LEARNING_RATE,
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


class TestTrainOnSeparableCorpus:
    @pytest.mark.parametrize("mode", ["dpo", "dpo_act", "dpo_fin", "hin_dpo"])
    def test_reaches_high_accuracy(self, mode):
        curriculum, policy = separable_setup()
        initial = policy.snapshot()
        trained, _ = train(curriculum, policy, toy_train_config(mode))
        examples = encode_pairs(curriculum.all_pairs())
        accuracy = loss_gradient(examples, trained, initial, LossConfig(beta=0.6)).accuracy
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
        margin_dpo = loss_gradient(examples, trained_dpo, initial, config_dpo.loss).weighted_margin

        config_hin = toy_train_config("hin_dpo")
        curriculum_hin, policy_hin = separable_setup(
            preferred_actuality=1.0, rejected_actuality=0.01
        )
        trained_hin, _ = train(curriculum_hin, policy_hin, config_hin)
        examples_hin = encode_pairs(curriculum_hin.all_pairs())
        attach_finesse(examples_hin, trained_hin, config_hin.loss, np.random.default_rng(123))
        margin_hin = loss_gradient(examples_hin, trained_hin, initial, config_hin.loss).weighted_margin
        assert margin_hin > margin_dpo


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
        assert log.stages() == ["B_L", "B_H"]
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
        margin_vs_initial = loss_gradient(examples, trained, initial, config).margin
        margin_vs_refreshed = loss_gradient(examples, trained, trained.snapshot(), config).margin
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

    def test_non_finite_loss_aborts_with_diagnostic(self, monkeypatch):
        curriculum, policy = separable_setup()

        def exploding(examples, pol, ref, cfg):
            return LossStep(np.zeros_like(pol.logits), float("nan"), 0.0, 0.0, 0.0)

        monkeypatch.setattr("hindpo.trainer.loss_gradient", exploding)
        with pytest.raises(TrainingError, match="non-finite"):
            train(curriculum, policy, toy_train_config())

    def test_non_finite_gradient_aborts_before_update(self, monkeypatch, tmp_path):
        curriculum, policy = separable_setup()
        before = policy.logits.copy()

        def nan_gradient(examples, pol, ref, cfg):
            return LossStep(np.full_like(pol.logits, np.nan), 0.5, 0.0, 0.0, 0.0)

        monkeypatch.setattr("hindpo.trainer.loss_gradient", nan_gradient)
        config = toy_train_config(checkpoint_every=1, checkpoint_dir=tmp_path)
        with pytest.raises(TrainingError, match="non-finite gradient at stage 'B_H' epoch 1 step 1"):
            train(curriculum, policy, config)
        assert np.array_equal(policy.logits, before)
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_update_aborts_before_log_and_checkpoint(self, tmp_path):
        # A finite gradient times a huge learning rate overflows the logits;
        # the step must stop before anything unloadable is written.
        curriculum = separable_curriculum(n_pairs=6)
        policy = BigramPolicy.new(vocab_from_pairs(curriculum.all_pairs()))
        before = policy.logits.copy()
        config = TrainConfig(learning_rate=1e308, checkpoint_every=1, checkpoint_dir=tmp_path)
        with pytest.raises(TrainingError, match="non-finite logits after the update .* step 1$"):
            train(curriculum, policy, config)
        assert np.array_equal(policy.logits, before)
        assert list(tmp_path.iterdir()) == []


class TestTrainLog:
    def test_save_jsonl(self, tmp_path):
        curriculum, policy = separable_setup()
        _, log = train(curriculum, policy, toy_train_config(epochs_per_stage=1))
        path = log.save(tmp_path / "log.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(log.records)
        import json

        first = json.loads(lines[0])
        assert list(first) == [
            "stage", "epoch", "step", "loss", "margin", "accuracy", "weighted_margin", "grad_norm"
        ]

    def test_records_carry_the_step_diagnostics(self, tmp_path):
        # Each batch holds the whole single-stage curriculum, so step 2's
        # record must match the step computed from the step-1 checkpoint
        # against the initial reference.
        curriculum, policy = separable_setup("hin_dpo", preferred_actuality=0.9, rejected_actuality=0.3)
        pairs = curriculum.all_pairs()
        config = toy_train_config(
            "hin_dpo", epochs_per_stage=2, batch_size=len(pairs),
            checkpoint_every=1, checkpoint_dir=tmp_path,
        )
        reference = policy.snapshot()
        examples = encode_pairs(pairs)
        attach_finesse(examples, policy, config.loss, np.random.default_rng(config.seed))
        _, log = train(curriculum, policy, config)
        after_first = BigramPolicy.load(tmp_path / "step_000001.json")
        step = loss_gradient(examples, after_first, reference, config.loss)
        second = log.records[1]
        assert second.weighted_margin == pytest.approx(step.weighted_margin, rel=1e-12)
        assert second.weighted_margin > second.margin > 0.0
        assert second.grad_norm == pytest.approx(np.linalg.norm(step.gradient), rel=1e-12)
        assert second.grad_norm > 0.0

    def test_checkpoint_cadence(self, tmp_path):
        curriculum, policy = separable_setup()
        config = toy_train_config(
            epochs_per_stage=1, checkpoint_every=10, checkpoint_dir=tmp_path
        )
        _, log = train(curriculum, policy, config)
        expected = len(log.records) // 10
        saved = sorted(tmp_path.glob("step_*.json"))
        assert len(saved) == expected
        loaded = BigramPolicy.load(saved[0])
        assert loaded.vocab == policy.vocab


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


class TestToyCorpusEndToEnd:
    def test_full_curriculum_trains(self):
        result = forge(toy_corpus(), seed=7)
        pairs = result.curriculum.all_pairs() + result.val_pairs + result.test_pairs
        vocab = vocab_from_pairs(pairs)
        policy = BigramPolicy.new(vocab, seed=7, noise_std=0.01)
        initial = policy.snapshot()
        config = toy_train_config("hin_dpo", epochs_per_stage=3, seed=7)
        trained, log = train(result.curriculum, policy, config)
        assert log.stages() == ["B_L", "B_M", "B_H"]
        step = loss_gradient(
            encode_pairs(result.curriculum.all_pairs()), trained, initial, LossConfig(beta=0.6)
        )
        margin, accuracy = step.margin, step.accuracy
        assert margin > 0.0
        assert accuracy > 0.8
