"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import time

import numpy as np
import pytest

from hindpo.cli import main
from hindpo.corpora import separable_curriculum, toy_corpus
from hindpo.dataforge import emit_forge, forge, load_pairs, read_manifest
from hindpo.evalharness import parse_table
from hindpo.losses import (
    LogRatios,
    LossConfig,
    encode_examples,
    hin_dpo_loss,
    loss_gradient,
    preference_score,
)
from hindpo.policy import EOS, BigramPolicy, Vocabulary
from hindpo.trainer import (
    TrainConfig,
    attach_finesse,
    encode_pairs,
    gradcheck,
    train,
    vocab_from_pairs,
)
from hindpo.welford import Welford

from oracles import rouge_l_f1_brute, two_pass_variance


def report(number, name, started):
    print("[acceptance] criterion %d (%s): PASS in %.1fs" % (number, name, time.time() - started))


def test_criterion_1_dpo_reduction_equivalence():
    started = time.time()
    # s_w = 0, s_l = 1 and v_effective + epsilon = 1 collapse the full loss
    # onto the plain one; the comparison must be bit-identical.
    config = LossConfig(mode="hin_dpo", epsilon=1.0, beta=0.6)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        ratios = LogRatios(float(rng.normal(0, 3)), float(rng.normal(0, 3)))
        collapsed = hin_dpo_loss(preference_score(ratios, 0.0, 1.0, 0.0, config), config.beta)
        plain = hin_dpo_loss(ratios.preferred - ratios.rejected, config.beta)
        worst = max(worst, abs(collapsed - plain))
    assert worst == 0.0
    report(1, "dpo reduction equivalence", started)


_GRADCHECK_SEEDS = {"dpo": 211, "dpo_act": 223, "dpo_fin": 227, "hin_dpo": 229}


@pytest.mark.parametrize("mode", ["dpo", "dpo_act", "dpo_fin", "hin_dpo"])
def test_criterion_2_gradient_fidelity(mode):
    started = time.time()
    rng = np.random.default_rng(_GRADCHECK_SEEDS[mode])
    vocab = Vocabulary.from_tokens(["q0", "q1", "w0", "w1", "w2"])
    policy = BigramPolicy(vocab, rng.normal(0, 1, (len(vocab), len(vocab))))
    reference = BigramPolicy(vocab, rng.normal(0, 1, (len(vocab), len(vocab)))).snapshot()
    words = ["w0", "w1", "w2"]
    from hindpo.losses import LossExample

    examples = []
    for _ in range(3):
        examples.append(
            LossExample(
                prompt=["q%d" % rng.integers(2)],
                preferred=[words[rng.integers(3)] for _ in range(int(rng.integers(1, 4)))] + [EOS],
                rejected=[words[rng.integers(3)] for _ in range(int(rng.integers(1, 4)))] + [EOS],
                preferred_actuality=float(rng.uniform(0, 1)),
                rejected_actuality=float(rng.uniform(0, 1)),
                effective_variance=float(rng.uniform(0, 1)),
            )
        )
    error = gradcheck(policy, examples, LossConfig(mode=mode), reference, h=1e-5)
    assert error < 1e-5
    report(2, "gradient fidelity (%s, max rel err %.2e)" % (mode, error), started)


def test_criterion_3_variance_correctness():
    started = time.time()
    fixture = [0.1, 0.2, 0.3, 0.4, 0.5]
    stats = Welford().extend(fixture)
    assert abs(stats.variance - 0.025) < 1e-12
    rng = np.random.default_rng(31)
    for _ in range(100):
        values = rng.uniform(0, 1, int(rng.integers(2, 100))).tolist()
        one_pass = Welford().extend(values).variance
        assert abs(one_pass - two_pass_variance(values)) < 1e-12
    report(3, "running variance vs two-pass", started)


def test_criterion_4_metric_oracles():
    started = time.time()
    from hindpo.textmetrics import final_score, rouge_l

    # Exhaustive: every (cand, ref) pair over a 3-symbol alphabet with
    # combined length up to 8 (83,653 pairs), against brute-force LCS.
    alphabet = "abc"
    for total in range(9):
        for len_c in range(total + 1):
            for cand in itertools.product(alphabet, repeat=len_c):
                for ref in itertools.product(alphabet, repeat=total - len_c):
                    assert rouge_l(list(cand), list(ref)).f1 == rouge_l_f1_brute(cand, ref)
    # Randomized cover of the full both-lengths-8 grid.
    rng = np.random.default_rng(37)
    for _ in range(2000):
        cand = [alphabet[i] for i in rng.integers(0, 3, 8)]
        ref = [alphabet[i] for i in rng.integers(0, 3, 8)]
        assert rouge_l(cand, ref).f1 == rouge_l_f1_brute(cand, ref)
    assert final_score(0.90, 0.30, 0.30) == 0.675
    report(4, "rouge-l exhaustive + final-score spot values", started)


def test_criterion_5_bucketization(tmp_path):
    started = time.time()
    result = forge(toy_corpus(), seed=7)
    by_article = {}
    for pair in result.curriculum.all_pairs():
        by_article.setdefault(pair.article_id, []).append(pair)
    for pairs in by_article.values():
        ordered = sorted(pairs, key=lambda p: p.rank)
        assert ordered[0].fs >= ordered[1].fs >= ordered[2].fs
    emit_forge(result, tmp_path)
    manifest = read_manifest(tmp_path)
    assert [entry["bucket"] for entry in manifest["stages"]] == ["B_L", "B_M", "B_H"]
    emitted_ids = []
    for entry in manifest["stages"]:
        emitted_ids.extend(p.id for p in load_pairs(tmp_path / entry["file"]))
    expected_ids = [p.id for p in result.curriculum.all_pairs()]
    assert sorted(emitted_ids) == sorted(expected_ids)
    assert len(emitted_ids) == len(set(emitted_ids))
    report(5, "bucketization on the toy corpus", started)


def test_criterion_6_learning_behavior():
    started = time.time()

    def run(mode, **pair_kwargs):
        curriculum = separable_curriculum(n_pairs=50, seed=1, **pair_kwargs)
        vocab = vocab_from_pairs(curriculum.all_pairs())
        policy = BigramPolicy.new(vocab)
        initial = policy.snapshot()
        config = TrainConfig(
            epochs_per_stage=10,
            learning_rate=0.5,
            batch_size=2,
            seed=5,
            loss=LossConfig(mode=mode),
        )
        trained, _ = train(curriculum, policy, config)
        examples = encode_pairs(curriculum.all_pairs())
        if config.loss.uses_finesse():
            attach_finesse(examples, trained, config.loss, np.random.default_rng(99))
        step = loss_gradient(encode_examples(examples, trained, initial), trained, config.loss)
        return step.weighted_margin, step.accuracy

    margins = {}
    for mode in ("dpo", "dpo_act", "dpo_fin", "hin_dpo"):
        margin, accuracy = run(mode)
        assert accuracy >= 0.95, "mode %s accuracy %.3f" % (mode, accuracy)
        margins[mode] = margin
    strong_margin, strong_accuracy = run(
        "hin_dpo", preferred_actuality=1.0, rejected_actuality=0.01
    )
    assert strong_accuracy >= 0.95
    assert strong_margin > margins["dpo"]
    report(
        6,
        "learning behavior (hin margin %.2f > dpo margin %.2f)"
        % (strong_margin, margins["dpo"]),
        started,
    )


def test_criterion_7_finesse_directionality():
    started = time.time()
    config = LossConfig(mode="hin_dpo")
    rng = np.random.default_rng(41)
    for _ in range(50):
        r_w = float(rng.uniform(0.2, 2.0))
        r_l = r_w - float(rng.uniform(0.1, 1.5))  # fixed positive margin
        ratios = LogRatios(r_w, r_l)
        variances = sorted(rng.uniform(0.0, 1.0, 6), reverse=True)
        losses = [
            hin_dpo_loss(preference_score(ratios, 0.5, 0.5, v, config), config.beta)
            for v in variances
        ]
        assert all(a > b for a, b in zip(losses, losses[1:]))
    report(7, "finesse directionality", started)


def test_criterion_8_demo_determinism(tmp_path):
    started = time.time()
    outputs = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        assert main(["demo", "--seed", "7", "--out", str(out)]) == 0
        outputs.append(
            {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], "%s differs between runs" % name
    # sanity: the demo produced the full artifact set and a parsable table
    names = set(outputs[0])
    assert "manifest.json" in names and "report.txt" in names
    for mode in ("dpo", "dpo_act", "dpo_fin", "hin_dpo"):
        assert "policy_%s.json" % mode in names
    table = parse_table(outputs[0]["report.txt"].decode("utf-8"))
    assert list(table) == ["base", "dpo", "dpo_act", "dpo_fin", "hin_dpo"]
    report(8, "demo determinism (byte-identical outputs)", started)


def test_acceptance_inputs_are_self_contained():
    # The toy corpus and separable set exist in code, not on disk.
    assert len(toy_corpus()) == 60
    assert len(separable_curriculum().all_pairs()) == 50
