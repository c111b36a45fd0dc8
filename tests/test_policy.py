import base64
import hashlib
import itertools
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hindpo import fileio
from hindpo import policy as policy_module
from hindpo.policy import BOS, EOS, BigramPolicy, OutOfVocabularyError, Vocabulary, draw, table_path

import oracles
from oracles import (
    chi_square_pvalue,
    finite_difference_gradient,
    relative_gradient_error,
    sequence_prob_oracle,
)


def small_vocab():
    return Vocabulary.from_tokens(["a", "b"])


class TestVocabulary:
    def test_from_tokens_is_sorted_and_reserved(self):
        vocab = Vocabulary.from_tokens(["z", "a", "a"])
        assert vocab.tokens == (BOS, EOS, "a", "z")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocabulary([BOS, EOS, "a", "a"])

    def test_rejects_missing_reserved(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b", "c"])

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            Vocabulary.from_tokens([])

    def test_from_tokens_rejects_a_token_that_is_not_a_string(self):
        with pytest.raises(ValueError, match="^vocabulary tokens must be non-empty strings$"):
            Vocabulary.from_tokens(["a", 1])

    def test_index_bijection(self):
        vocab = small_vocab()
        for i, token in enumerate(vocab.tokens):
            assert vocab.index(token) == i
        with pytest.raises(OutOfVocabularyError):
            vocab.index("missing")


class TestNewPolicy:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"noise_std": -0.5}, "noise_std must be >= 0, got -0.5"),
            ({"noise_std": float("nan")}, "noise_std must be finite, got nan"),
            ({"noise_std": "x"}, "noise_std must be a number, got 'x'"),
            ({"seed": 1.5, "noise_std": 0.1}, "seed must be an integer, got 1.5"),
            ({"seed": True, "noise_std": 0.1}, "seed must be an integer, got True"),
            ({"seed": -1, "noise_std": 0.1}, "seed must be >= 0, got -1"),
        ],
        ids=["negative-std", "nan-std", "str-std", "float-seed", "bool-seed", "negative-seed"],
    )
    def test_bad_argument_rejected_by_name(self, kwargs, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            BigramPolicy.new(small_vocab(), **kwargs)

    def test_zero_init_uniform_rows(self):
        policy = BigramPolicy.new(small_vocab())
        probs = np.exp(policy.logits) / np.exp(policy.logits).sum(axis=1, keepdims=True)
        assert np.allclose(probs, 0.25)

    def test_noise_init_deterministic(self):
        a = BigramPolicy.new(small_vocab(), seed=42, noise_std=0.01)
        b = BigramPolicy.new(small_vocab(), seed=42, noise_std=0.01)
        assert np.array_equal(a.logits, b.logits)

    def test_noise_magnitude(self):
        # std 0.01 on a 4x4 table: an entry beyond 0.1 is a ten-sigma event.
        for seed in range(1000):
            policy = BigramPolicy.new(small_vocab(), seed=seed, noise_std=0.01)
            assert np.abs(policy.logits).max() < 0.1

    def test_rejects_nonfinite_logits(self):
        with pytest.raises(ValueError):
            BigramPolicy(small_vocab(), np.full((4, 4), np.nan))

    def test_rows_normalize(self):
        rng = np.random.default_rng(2)
        policy = BigramPolicy(small_vocab(), rng.normal(0, 5, (4, 4)))
        probs = np.exp(policy.logits - policy.logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestSequenceLogProb:
    def test_uniform_two_tokens(self):
        policy = BigramPolicy.new(small_vocab())
        got = policy.sequence_log_prob([], ["a", EOS])
        assert got == pytest.approx(2 * math.log(0.25), abs=1e-12)

    def test_two_way_tie_gives_log_half(self):
        # Row "a" puts all mass on {a, b}; the rest is pushed far below.
        vocab = small_vocab()
        logits = np.full((4, 4), -1000.0)
        row = vocab.index("a")
        logits[row, vocab.index("a")] = 0.0
        logits[row, vocab.index("b")] = 0.0
        policy = BigramPolicy(vocab, logits)
        assert policy.sequence_log_prob(["a"], ["a"]) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_matches_product_of_softmax_oracle(self):
        rng = np.random.default_rng(23)
        vocab = small_vocab()
        policy = BigramPolicy(vocab, rng.normal(0, 1, (4, 4)))
        for _ in range(5):
            prompt = ["a"] if rng.random() < 0.5 else []
            body = [vocab.tokens[2 + rng.integers(2)] for _ in range(int(rng.integers(1, 5)))]
            response = body + [EOS]
            expected = sequence_prob_oracle(policy.logits, vocab.tokens, prompt, response)
            assert policy.sequence_log_prob(prompt, response) == pytest.approx(
                math.log(expected), abs=1e-12
            )

    def test_out_of_vocabulary(self):
        policy = BigramPolicy.new(small_vocab())
        with pytest.raises(OutOfVocabularyError):
            policy.sequence_log_prob(["zz"], ["a"])
        with pytest.raises(OutOfVocabularyError):
            policy.sequence_log_prob([], ["zz"])


class TestGradSequenceLogProb:
    def test_uniform_single_transition(self):
        vocab = small_vocab()
        policy = BigramPolicy.new(vocab)
        grad = oracles.grad_sequence_log_prob(policy, ["a"], ["a"])
        expected_row = np.array([-0.25, -0.25, 0.75, -0.25])
        assert np.allclose(grad[vocab.index("a")], expected_row)
        untouched = [i for i in range(4) if i != vocab.index("a")]
        assert np.all(grad[untouched] == 0.0)

    def test_eos_only_response_touches_one_row(self):
        policy = BigramPolicy.new(small_vocab())
        grad = oracles.grad_sequence_log_prob(policy, [], [EOS])
        nonzero_rows = np.flatnonzero(np.abs(grad).sum(axis=1))
        assert list(nonzero_rows) == [policy.vocab.index(BOS)]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        vocab = small_vocab()
        policy = BigramPolicy(vocab, rng.normal(0, 1, (4, 4)))
        prompt = ["b"]
        response = ["a", "a", "b", EOS]
        analytic = oracles.grad_sequence_log_prob(policy, prompt, response)
        numeric = finite_difference_gradient(
            lambda: policy.sequence_log_prob(prompt, response), policy.logits
        )
        assert relative_gradient_error(analytic, numeric) < 1e-6


class TestSampling:
    def test_low_temperature_is_argmax(self):
        rng = np.random.default_rng(31)
        vocab = small_vocab()
        policy = BigramPolicy(vocab, rng.normal(0, 1, (4, 4)))
        [sampled] = policy.sample_responses([["a"]], 1e-6, 6, np.random.default_rng(0))
        assert [sampled] == policy.sample_responses([["a"]], 0, 6, np.random.default_rng(0))

    def test_same_seed_same_sequence(self):
        policy = BigramPolicy.new(small_vocab(), seed=1, noise_std=0.5)
        a = policy.sample_responses([["a"]], 0.9, 10, np.random.default_rng(99))
        b = policy.sample_responses([["a"]], 0.9, 10, np.random.default_rng(99))
        assert a == b

    def test_uniform_frequencies(self):
        # Zero logits: first-token frequencies must be uniform within +/-2%.
        policy = BigramPolicy.new(small_vocab())
        rng = np.random.default_rng(7)
        counts = {t: 0 for t in policy.vocab.tokens}
        n = 10_000
        for [token] in policy.sample_responses([[]] * n, 0.9, 1, rng):
            counts[token] += 1
        for token, count in counts.items():
            assert abs(count / n - 0.25) < 0.02

    def test_invalid_arguments(self):
        policy = BigramPolicy.new(small_vocab())
        for temperature, problem in [
            (float("nan"), "finite"), (float("inf"), "finite"), ("x", "a number"), (True, "a number"), (None, "a number"), (-1.0, ">= 0")
        ]:
            with pytest.raises(ValueError, match="^temperature must be %s, got %s$" % (problem, re.escape(repr(temperature)))):
                policy.sample_responses([["a"]], temperature, 5, np.random.default_rng(0))
        # max_len is refused by name, greedy (temperature 0) or sampled.
        for temperature in (0.0, 1.0):
            with pytest.raises(ValueError, match="^max_len must be >= 1, got 0$"):
                policy.sample_responses([[]], temperature, 0, np.random.default_rng(0))
            for max_len in ("3", 2.5, True, None):
                message = "^max_len must be an integer, got %s$" % re.escape(repr(max_len))
                with pytest.raises(ValueError, match=message):
                    policy.sample_responses([["a"]], temperature, max_len, np.random.default_rng(0))


def random_policy(size, seed, std=1.5):
    """A seeded random table over ``size`` tokens, BOS and EOS included."""
    vocab = Vocabulary.from_tokens(["t%03d" % i for i in range(size - 2)])
    return BigramPolicy(vocab, np.random.default_rng(seed).normal(0, std, (size, size)))


BIT_GENERATORS = [np.random.PCG64, np.random.Philox, np.random.MT19937, np.random.SFC64]


class TestGreedyMatchesOracle:
    # Temperature 0 against the per-token argmax loop. Integer logits in a
    # narrow range make tied row maxima common, and argmax takes the first.
    @pytest.mark.parametrize("max_len", [1, 3, 7])
    def test_zero_temperature_is_the_argmax_loop(self, max_len):
        rng = np.random.default_rng(max_len)
        seen = {"tie": 0, "eos": 0, "cut": 0}
        for seed in range(100):
            policy = random_policy(int(rng.integers(3, 12)), seed)
            policy.logits[:] = rng.integers(-2, 3, policy.logits.shape)
            prompts = [[]] + [[token] for token in policy.vocab.tokens[2:]]
            got = policy.sample_responses(prompts, 0, max_len, np.random.default_rng(seed))
            assert got == [oracles.greedy_response(policy, prompt, max_len) for prompt in prompts]
            top = policy.logits.max(axis=1, keepdims=True)
            seen["tie"] += int(np.any((policy.logits == top).sum(axis=1) > 1))
            seen["eos"] += sum(r[-1] == EOS for r in got)
            seen["cut"] += sum(len(r) == max_len and r[-1] != EOS for r in got)
        assert all(seen.values()), seen

    def test_the_generator_does_not_change_the_response(self):
        policy = random_policy(20, seed=4)
        prompts = [[], ["t000"], ["t004", "t017"]]
        want = [oracles.greedy_response(policy, prompt, 6) for prompt in prompts]
        for seed in range(5):
            assert policy.sample_responses(prompts, 0.0, 6, np.random.default_rng(seed)) == want


class TestSamplerMatchesOracle:
    # The table sampler against the per-token softmax and rng.choice loop:
    # the same tokens, and the generator left in the same state.
    @pytest.mark.parametrize("size", [57, 301])
    @pytest.mark.parametrize("temperature", [0.3, 0.9, 1.5])
    def test_same_tokens_and_generator_state(self, size, temperature):
        policy = random_policy(size, seed=size)
        policy.logits[:, policy.vocab.index(EOS)] += 3.0  # some draws end, some run into max_len
        max_len = 8
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        drawn = []
        for _ in range(20):
            for prompt in ([], ["t000"], ["t004", "t017"]):
                [got] = policy.sample_responses([prompt], temperature, max_len, ours)
                assert got == oracles.sample_response(policy, prompt, temperature, max_len, theirs)
                drawn.append(got)
        assert ours.random() == theirs.random()
        assert any(r[-1] == EOS for r in drawn)
        assert any(len(r) == max_len and r[-1] != EOS for r in drawn)

    def test_a_uniform_on_a_cdf_step_takes_the_token_after_it(self):
        # Tokens 1-3 have zero probability, so the row's CDF repeats the
        # generator's first uniform u; searchsorted(side="right") and so
        # rng.choice take token 4, the first whose CDF value exceeds u.
        u = np.random.default_rng(21).random()
        cdf = np.array([[u, u, u, u, 1.0]] * 5)
        assert cdf[0].searchsorted(u, side="right") == 4
        assert draw(cdf, [0], 4, 3, np.random.default_rng(21)) == [[4]]

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_every_bit_generator(self, bit_generator):
        policy = random_policy(20, seed=9)
        policy.logits[:, policy.vocab.index(EOS)] += 1.0
        ours, theirs = np.random.Generator(bit_generator(5)), np.random.Generator(bit_generator(5))
        drawn = []
        for _ in range(40):
            for prompt in ([], ["t000"], ["t004", "t017"]):
                [got] = policy.sample_responses([prompt], 0.9, 6, ours)
                assert got == oracles.sample_response(policy, prompt, 0.9, 6, theirs)
                drawn.append(got)
        assert ours.random() == theirs.random()
        assert any(r[-1] == EOS for r in drawn)
        assert any(len(r) == 6 and r[-1] != EOS for r in drawn)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_draws_longer_than_one_block(self, bit_generator):
        # EOS is all but unreachable, so each draw runs to max_len and takes
        # its uniforms from several blocks.
        policy = random_policy(6, seed=3)
        policy.logits[:, policy.vocab.index(EOS)] -= 40.0
        max_len = 2 * policy_module._BLOCK + 100
        ours, theirs = np.random.Generator(bit_generator(8)), np.random.Generator(bit_generator(8))
        for prompt in ([], ["t001"]):
            [got] = policy.sample_responses([prompt], 1.0, max_len, ours)
            assert len(got) == max_len and EOS not in got
            assert got == oracles.sample_response(policy, prompt, 1.0, max_len, theirs)
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("temperature", [0.5, 1.5])
    def test_one_table_for_many_prompts(self, seed, temperature):
        # sample_responses equals the per-token oracle called once per
        # prompt on one generator, draws cut off by max_len included.
        policy = random_policy(20, seed=seed)
        policy.logits[:, policy.vocab.index(EOS)] += 2.0
        prompts = [[], ["t000"], ["t004", "t017"], ["t000"]] * 10
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = policy.sample_responses(prompts, temperature, 5, ours)
        assert got == [oracles.sample_response(policy, prompt, temperature, 5, theirs) for prompt in prompts]
        assert ours.random() == theirs.random()
        assert any(r[-1] == EOS for r in got)
        assert any(len(r) == 5 and r[-1] != EOS for r in got)

    def test_no_prompts_draw_nothing(self):
        policy = random_policy(5, seed=0)
        ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
        assert policy.sample_responses([], 1.0, 5, ours) == []
        assert ours.random() == theirs.random()


_BLOCK = policy_module._BLOCK


class TestMultiStartDraw:
    # One draw of many start rows, each given ``count`` times, against one
    # draw per start on another generator of the same seed: the same paths
    # and the same end state, whether the starts' uniforms fit in one block
    # or not.
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        bit_generator=st.sampled_from(BIT_GENERATORS),
        seed=st.integers(0, 2**32 - 1),
        starts=st.lists(st.integers(0, 5), max_size=12),
        count=st.integers(1, 4),
        max_len=st.integers(1, 48),
        eos_shift=st.sampled_from([-6.0, 0.0, 2.0]),
    )
    @example(bit_generator=np.random.PCG64, seed=1, starts=[0] * 8, count=4, max_len=_BLOCK // 32, eos_shift=-6.0)
    @example(bit_generator=np.random.MT19937, seed=2, starts=[0] * 8, count=4, max_len=_BLOCK // 32 + 1, eos_shift=-6.0)
    @example(bit_generator=np.random.Philox, seed=3, starts=[1, 2], count=1, max_len=3 * _BLOCK, eos_shift=-40.0)
    def test_the_paths_and_end_state_of_one_draw_per_start(self, bit_generator, seed, starts, count, max_len, eos_shift):
        policy = random_policy(6, seed=seed % 97)
        eos = policy.vocab.index(EOS)
        policy.logits[:, eos] += eos_shift  # draws that end early, late or never
        _, cdf = policy_module.sampling_tables(policy.logits, 1.0)
        ours, theirs = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
        repeated = [start for start in starts for _ in range(count)]
        got = draw(cdf, repeated, eos, max_len, ours)
        assert got == oracles.draw_per_start(cdf, repeated, eos, max_len, theirs)
        assert len(got) == len(starts) * count
        assert ours.random(3).tolist() == theirs.random(3).tolist()


def enumerate_mass(policy, prompt, max_len):
    """(completed mass, truncated mass) over all length<=max_len outcomes."""
    content = [t for t in policy.vocab.tokens if t != EOS]
    complete = 0.0
    for length in range(max_len):
        for body in itertools.product(content, repeat=length):
            complete += math.exp(policy.sequence_log_prob(prompt, [*body, EOS]))
    truncated = 0.0
    for body in itertools.product(content, repeat=max_len):
        truncated += math.exp(policy.sequence_log_prob(prompt, list(body)))
    return complete, truncated


class TestResponseDistribution:
    def test_mass_sums_to_one_with_truncation(self):
        rng = np.random.default_rng(37)
        policy = BigramPolicy(small_vocab(), rng.normal(0, 1, (4, 4)))
        complete, truncated = enumerate_mass(policy, ["a"], 3)
        assert complete <= 1.0
        assert complete + truncated == pytest.approx(1.0, abs=1e-9)

    def test_sampling_matches_log_probs_chi_square(self):
        # Goodness of fit of sampled outcomes at T=1 against enumerated
        # sequence probabilities.
        rng = np.random.default_rng(41)
        policy = BigramPolicy(small_vocab(), rng.normal(0, 0.5, (4, 4)))
        content = [t for t in policy.vocab.tokens if t != EOS]
        outcomes = []
        for length in range(2):
            for body in itertools.product(content, repeat=length):
                outcomes.append((*body, EOS))
        for body in itertools.product(content, repeat=2):
            outcomes.append(body)
        probs = {
            seq: math.exp(policy.sequence_log_prob(["a"], list(seq))) for seq in outcomes
        }
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
        n = 30_000
        sample_rng = np.random.default_rng(43)
        counts = dict.fromkeys(outcomes, 0)
        for response in policy.sample_responses([["a"]] * n, 1.0, 2, sample_rng):
            counts[tuple(response)] += 1
        observed = np.array([counts[seq] for seq in outcomes], dtype=float)
        expected = np.array([probs[seq] * n for seq in outcomes])
        assert chi_square_pvalue(observed, expected) > 0.01


class TestSnapshot:
    def test_snapshot_is_isolated(self):
        policy = BigramPolicy.new(small_vocab(), seed=3, noise_std=0.5)
        frozen = policy.snapshot()
        before = frozen.sequence_log_prob(["a"], ["b", EOS])
        policy.logits += 5.0
        assert frozen.sequence_log_prob(["a"], ["b", EOS]) == before

    def test_snapshot_is_immutable(self):
        frozen = BigramPolicy.new(small_vocab()).snapshot()
        with pytest.raises(ValueError):
            frozen.logits[0, 0] = 1.0

    def test_snapshot_equals_source_parameters(self):
        policy = BigramPolicy.new(small_vocab(), seed=9, noise_std=0.3)
        assert np.array_equal(policy.snapshot().logits, policy.logits)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        policy = BigramPolicy.new(small_vocab(), seed=5, noise_std=0.7)
        path = policy.save(tmp_path / "ckpt.json")
        loaded = BigramPolicy.load(path)
        assert loaded.vocab == policy.vocab
        assert np.array_equal(loaded.logits, policy.logits)

    def test_save_is_deterministic(self, tmp_path):
        policy = BigramPolicy.new(small_vocab(), seed=5, noise_std=0.7)
        a = policy.save(tmp_path / "a.json").read_bytes()
        b = policy.save(tmp_path / "b.json").read_bytes()
        assert a == b

    def test_rejects_unknown_version(self, tmp_path):
        policy = BigramPolicy.new(small_vocab())
        path = policy.save(tmp_path / "ckpt.json")
        payload = path.read_text().replace('"format_version": 3', '"format_version": 99')
        path.write_text(payload)
        with pytest.raises(ValueError):
            BigramPolicy.load(path)

    def test_table_is_raw_little_endian_float64_beside_the_header(self, tmp_path):
        policy = BigramPolicy.new(small_vocab(), seed=5, noise_std=0.7)
        header = json.loads(policy.save(tmp_path / "ckpt.json").read_text(encoding="utf-8"))
        table = (tmp_path / "ckpt.json.logits").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json", "ckpt.json.logits"]
        assert list(header) == ["format_version", "vocab", "sha256"]
        assert header["format_version"] == 3
        assert table == policy.logits.astype("<f8").tobytes()
        assert header["sha256"] == hashlib.sha256(table).hexdigest()

    @pytest.mark.parametrize("name", ["ckpt.json", "ckpt.json.logits", "ckpt", ".logits"])
    def test_table_path_is_a_sibling_with_another_name(self, tmp_path, name):
        assert table_path(tmp_path / name) == tmp_path / (name + ".logits")
        assert table_path(tmp_path / name) != tmp_path / name

    @pytest.mark.parametrize(
        "version, logits",
        [
            pytest.param(1, lambda table: table.tolist(), id="version-1"),
            pytest.param(2, lambda table: base64.b64encode(table.astype("<f8").tobytes()).decode("ascii"), id="version-2"),
        ],
    )
    def test_load_refuses_an_older_checkpoint_by_its_version(self, tmp_path, version, logits):
        # The file an older writer made: the table inline under "logits",
        # no sha256 and no table file beside it.
        policy = BigramPolicy.new(small_vocab(), seed=5, noise_std=0.7)
        path = tmp_path / ("v%d.json" % version)
        path.write_text(json.dumps({
            "format_version": version,
            "vocab": list(policy.vocab.tokens),
            "logits": logits(policy.logits),
        }), encoding="utf-8")
        error = "%s: unsupported checkpoint format version: %d" % (path, version)
        with pytest.raises(ValueError, match="^%s$" % re.escape(error)):
            BigramPolicy.load(path)

    def test_loads_through_a_relative_path_from_another_directory(self, tmp_path, monkeypatch):
        policy = BigramPolicy.new(small_vocab(), seed=5, noise_std=0.7)
        (tmp_path / "run").mkdir()
        (tmp_path / "elsewhere").mkdir()
        policy.save(tmp_path / "run" / "ckpt.json")
        # A table of the same name in the working directory must not be read.
        BigramPolicy.new(small_vocab(), seed=6, noise_std=0.7).save(tmp_path / "elsewhere" / "ckpt.json")
        monkeypatch.chdir(tmp_path / "elsewhere")
        for path in ("../run/ckpt.json", Path("..") / "run" / "ckpt.json"):
            assert BigramPolicy.load(path).logits.tobytes() == policy.logits.tobytes()
        monkeypatch.chdir(tmp_path)
        assert BigramPolicy.load("run/ckpt.json").logits.tobytes() == policy.logits.tobytes()

    def test_a_write_failing_inside_the_table_leaves_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        earlier = BigramPolicy.new(small_vocab(), seed=5, noise_std=0.7)
        path = earlier.save(tmp_path / "ckpt.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        class HalfWritten:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                raise OSError("No space left on device")

        def failing_open(file, mode="r", **kwargs):
            handle = open(file, mode, **kwargs)
            return HalfWritten(handle) if mode == "wb" else handle

        monkeypatch.setattr(fileio, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            BigramPolicy.new(small_vocab(), seed=6, noise_std=0.7).save(path)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert BigramPolicy.load(path).logits.tobytes() == earlier.logits.tobytes()

    def test_a_header_write_failing_after_the_table_makes_load_refuse(self, tmp_path, monkeypatch):
        path = BigramPolicy.new(small_vocab(), seed=5, noise_std=0.7).save(tmp_path / "ckpt.json")
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst) == path:
                raise OSError("No space left on device")
            replace(src, dst)

        monkeypatch.setattr(fileio.os, "replace", failing_replace)
        with pytest.raises(OSError, match="No space left on device"):
            BigramPolicy.new(small_vocab(), seed=6, noise_std=0.7).save(path)
        monkeypatch.undo()
        message = "%s: logit table %s does not match the header's sha256" % (path, table_path(path))
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            BigramPolicy.load(path)


# Tokens holding JSON's escaped characters (quotes, backslashes, control
# characters), characters JSON may write raw (U+007F, U+2028, non-ASCII up
# to U+10FFFF) and anything else but a lone surrogate, which no UTF-8 file
# holds.
_TOKEN_CHARS = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "/", "\u2028", "é", "क", "\u094d", "\U0010ffff"]) | st.characters()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(tokens=st.lists(st.text(_TOKEN_CHARS, min_size=1, max_size=6), min_size=1, max_size=12), seed=st.integers(0, 3))
def test_save_writes_the_line_json_dumps_writes(tokens, seed):
    import tempfile

    policy = BigramPolicy.new(Vocabulary.from_tokens(tokens), seed=seed, noise_std=0.5)
    table = policy.logits.astype("<f8").tobytes()
    header = {"format_version": 3, "vocab": list(policy.vocab.tokens), "sha256": hashlib.sha256(table).hexdigest()}
    with tempfile.TemporaryDirectory() as tmp:
        path = policy.save(Path(tmp) / "ckpt.json")
        assert path.read_bytes() == (json.dumps(header, ensure_ascii=False) + "\n").encode("utf-8")
        assert table_path(path).read_bytes() == table
        loaded = BigramPolicy.load(path)
    assert loaded.vocab == policy.vocab
    assert loaded.logits.tobytes() == policy.logits.tobytes()


_NAN_TABLE = np.zeros((4, 4))
_NAN_TABLE[1, 2] = np.nan


def _edit_header(change):
    def edit(header, table):
        payload = json.loads(header.read_text(encoding="utf-8"))
        change(payload)
        header.write_text(json.dumps(payload), encoding="utf-8")
    return edit


def _non_finite_table(header, table):
    data = _NAN_TABLE.astype("<f8").tobytes()
    table.write_bytes(data)
    _edit_header(lambda payload: payload.update(sha256=hashlib.sha256(data).hexdigest()))(header, table)


def _truncate_header(header, table):
    # The cut falls inside the sha256 string, the header's last value.
    header.write_text(header.read_text(encoding="utf-8")[:-10], encoding="utf-8")


def _flip_last_byte(header, table):
    data = bytearray(table.read_bytes())
    data[-1] ^= 1
    table.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            lambda header, table: table.unlink(),
            r"cannot read the logit table: \[Errno 2\] No such file or directory: '.*ckpt\.json\.logits'",
            id="missing-table",
        ),
        pytest.param(
            lambda header, table: table.write_bytes(table.read_bytes()[:-8]),
            "logits hold 120 bytes, expected 128",
            id="truncated-table",
        ),
        pytest.param(_flip_last_byte, r"logit table .*ckpt\.json\.logits does not match the header's sha256", id="sha-mismatch"),
        pytest.param(
            _edit_header(lambda payload: payload.update(sha256="0" * 64)),
            r"logit table .*ckpt\.json\.logits does not match the header's sha256",
            id="other-sha-in-header",
        ),
        pytest.param(
            _edit_header(lambda payload: payload.update(step=3)),
            r"checkpoint keys must be \['format_version', 'sha256', 'vocab'\], got \['format_version', 'sha256', 'step', 'vocab'\]",
            id="extra-header-key",
        ),
        pytest.param(
            _edit_header(lambda payload: payload.pop("sha256")),
            r"checkpoint keys must be \['format_version', 'sha256', 'vocab'\], got \['format_version', 'vocab'\]",
            id="missing-header-key",
        ),
        pytest.param(_non_finite_table, "logits must be finite", id="non-finite-table"),
        pytest.param(_truncate_header, "invalid JSON: Unterminated string starting at", id="truncated-json"),
        pytest.param(
            lambda header, table: header.write_text("[]", encoding="utf-8"),
            r"checkpoint keys must be \['format_version', 'sha256', 'vocab'\], got list",
            id="not-an-object",
        ),
        *(
            pytest.param(
                _edit_header(lambda payload, version=version: payload.update(format_version=version)),
                "unsupported checkpoint format version: %r" % version,
                id="version-%r" % version,
            )
            for version in (1, 2, 4, True, 3.0)
        ),
        pytest.param(
            _edit_header(lambda payload: payload.pop("format_version")),
            "unsupported checkpoint format version: None",
            id="missing-version",
        ),
        pytest.param(
            _edit_header(lambda payload: payload.update(vocab=["<bos>", "a", "b"])),
            "vocabulary must contain the reserved <bos> and <eos> tokens",
            id="vocab-without-eos",
        ),
        pytest.param(
            _edit_header(lambda payload: payload.update(vocab=["<bos>", "<eos>", "a", 5])),
            "vocabulary tokens must be non-empty strings",
            id="vocab-non-string",
        ),
        pytest.param(
            _edit_header(lambda payload: payload.update(vocab=["<bos>", "<eos>", "a", "a"])),
            "vocabulary tokens must be unique",
            id="vocab-duplicate",
        ),
        pytest.param(
            _edit_header(lambda payload: payload.update(vocab=["<bos>", "<eos>"])),
            "vocabulary needs at least 3 tokens, got 2",
            id="vocab-too-small",
        ),
        pytest.param(
            _edit_header(lambda payload: payload.update(vocab=None)),
            "'NoneType' object is not iterable",
            id="vocab-not-a-list",
        ),
        pytest.param(
            _edit_header(lambda payload: payload.update(vocab=payload["vocab"] + ["c"])),
            "logits hold 128 bytes, expected 200",
            id="header-vocab-larger-than-table",
        ),
    ],
)
def test_load_rejects_a_bad_version_3_checkpoint_naming_it(tmp_path, edit, message):
    path = BigramPolicy.new(small_vocab(), seed=5, noise_std=0.7).save(tmp_path / "ckpt.json")
    edit(path, table_path(path))
    with pytest.raises(ValueError, match="^%s: %s" % (re.escape(str(path)), message)):
        BigramPolicy.load(path)


def test_load_names_a_non_utf8_checkpoint_as_such(tmp_path):
    path = BigramPolicy.new(small_vocab(), seed=5, noise_std=0.7).save(tmp_path / "ckpt.json")
    path.write_bytes(b"\xff" + path.read_bytes())
    error = "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    with pytest.raises(ValueError, match="^%s$" % re.escape("%s: %s" % (path, error))):
        BigramPolicy.load(path)
