import json
import re
import unicodedata
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hindpo.evalharness import (
    CONFIG_ORDER,
    MetricReport,
    evaluate,
    evaluate_configs,
    generate,
    parse_table,
    report_table,
)
from hindpo.policy import BOS, EOS, BigramPolicy, OutOfVocabularyError, Vocabulary
from hindpo.textmetrics import rouge_l, tokenize
from oracles import evaluate_per_config


def preferring_policy():
    # Prompt rows point hard at "a"; "a" then terminates.
    vocab = Vocabulary.from_tokens(["a", "b", "p0", "p1"])
    logits = np.zeros((len(vocab), len(vocab)))
    for prompt in ("p0", "p1"):
        logits[vocab.index(prompt), vocab.index("a")] = 8.0
    logits[vocab.index("a"), vocab.index(EOS)] = 8.0
    return BigramPolicy(vocab, logits)


class TestGenerate:
    def test_empty_prompt_list(self):
        assert generate(preferring_policy(), []) == []

    def test_greedy_emits_preferred_continuation(self):
        policy = preferring_policy()
        texts = generate(policy, ["p0", "p1", "p0"], max_len=4)
        assert texts == ["a", "a", "a"]

    def test_sampling_deterministic_per_seed(self):
        policy = preferring_policy()
        prompts = ["p0"] * 5
        a = generate(policy, prompts, temperature=0.9, seed=11)
        b = generate(policy, prompts, temperature=0.9, seed=11)
        assert a == b

    def test_out_of_vocabulary_prompt(self):
        with pytest.raises(OutOfVocabularyError):
            generate(preferring_policy(), ["missing"])

    @pytest.mark.parametrize(
        "prompts, message",
        [
            ("p0", "prompts must be a sequence of strings, got 'p0'"),
            ([5], "prompts[0] must be a string, got 5"),
            (["p0", None], "prompts[1] must be a string, got None"),
            (["p0", "p1", b"p0"], "prompts[2] must be a string, got b'p0'"),
        ],
        ids=["bare-string", "int", "none", "bytes"],
    )
    def test_a_bare_string_or_a_non_string_prompt_is_refused_by_name(self, prompts, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            generate(preferring_policy(), prompts)

    def test_prompts_from_a_generator_are_all_decoded(self):
        assert generate(preferring_policy(), (prompt for prompt in ["p0", "p1"]), max_len=4) == ["a", "a"]

    def test_nan_temperature_rejected(self):
        with pytest.raises(ValueError, match="^temperature must be finite, got nan$"):
            generate(preferring_policy(), ["p0"], temperature=float("nan"))

    @pytest.mark.parametrize("temperature", [0.0, 0.9])
    def test_max_len_below_one_rejected_greedy_or_sampled(self, temperature):
        with pytest.raises(ValueError, match="^max_len must be >= 1, got 0$"):
            generate(preferring_policy(), ["p0"], max_len=0, temperature=temperature)

    @pytest.mark.parametrize("prompts", [["p0"], [], ["missing"]], ids=["prompt", "none", "oov"])
    @pytest.mark.parametrize("temperature", [0.0, 0.9])
    @pytest.mark.parametrize(
        "max_len, message",
        [(0, "max_len must be >= 1, got 0"), (2.5, "max_len must be an integer, got 2.5"), (True, "max_len must be an integer, got True")],
        ids=["zero", "float", "bool"],
    )
    def test_bad_max_len_rejected_before_any_prompt(self, max_len, message, temperature, prompts):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            generate(preferring_policy(), prompts, max_len=max_len, temperature=temperature)

    @pytest.mark.parametrize("prompts", [["p0"], [], ["missing"]], ids=["prompt", "none", "oov"])
    @pytest.mark.parametrize(
        "temperature, problem",
        [(-1.0, ">= 0"), (-float("inf"), "finite"), ("x", "a number"), (True, "a number"), (None, "a number")],
        ids=["-1", "-inf", "str", "bool", "none"],
    )
    def test_negative_temperature_rejected_before_any_prompt(self, temperature, problem, prompts):
        message = "temperature must be %s, got %r" % (problem, temperature)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            generate(preferring_policy(), prompts, temperature=temperature)

    @pytest.mark.parametrize("temperature", [0.0, 0.9])
    @pytest.mark.parametrize(
        "seed, message",
        [(1.5, "must be an integer, got 1.5"), ("x", "must be an integer, got 'x'"), (True, "must be an integer, got True"), (-1, "must be >= 0, got -1")],
        ids=["float", "str", "bool", "negative"],
    )
    def test_bad_seed_rejected_by_name_greedy_or_sampled(self, seed, message, temperature):
        with pytest.raises(ValueError, match="^seed %s$" % re.escape(message)):
            generate(preferring_policy(), ["p0"], temperature=temperature, seed=seed)

    def test_infinite_temperature_rejected(self):
        with pytest.raises(ValueError, match="^temperature must be finite, got inf$"):
            generate(preferring_policy(), ["p0"], temperature=float("inf"))

    def test_reserved_tokens_stripped(self):
        policy = BigramPolicy.new(Vocabulary.from_tokens(["a", "b"]))
        for text in generate(policy, ["a"] * 3, temperature=1.0, seed=0, max_len=6):
            assert "<bos>" not in text and "<eos>" not in text

    @pytest.mark.parametrize("seed", [0, 3, 17])
    @pytest.mark.parametrize("temperature", [0.4, 1.0, 2.0])
    def test_sampling_matches_the_per_prompt_loop(self, seed, temperature):
        # One temperature table for the whole call draws what
        # sample_responses draws when called prompt by prompt on the same
        # generator, draws cut off at max_len included.
        vocab = Vocabulary.from_tokens(["a", "b", "c", "p0", "p1"])
        policy = BigramPolicy(vocab, np.random.default_rng(seed).normal(0, 1.5, (len(vocab), len(vocab))))
        policy.logits[:, vocab.index(EOS)] += 1.0
        prompts = ["p0", "p1 a", "", "p0", "c b"] * 8
        texts = generate(policy, prompts, max_len=4, temperature=temperature, seed=seed)
        rng = np.random.default_rng(seed)
        responses = [policy.sample_responses([tokenize(p)], temperature, 4, rng)[0] for p in prompts]
        assert texts == [" ".join(t for t in r if t not in (BOS, EOS)) for r in responses]
        assert any(r[-1] == EOS for r in responses)
        assert any(len(r) == 4 and r[-1] != EOS for r in responses)


class TestEvaluate:
    def test_identity(self):
        texts = ["यह खबर गलत है", "दावे की पुष्टि नहीं हुई"]
        report = evaluate(texts, texts, "base")
        assert report.r1 == 1.0
        assert report.r2 == 1.0
        assert report.rl == 1.0
        assert report.semantic == 1.0

    def test_disjoint(self):
        report = evaluate(["a b c"], ["x y z"], "base")
        assert report.r1 == report.r2 == report.rl == report.meteor == 0.0

    def test_mean_matches_hand_computation(self):
        generated = ["a b c d", "x y", "a b"]
        references = ["a c d", "x y", "b a"]
        expected_rl = float(
            np.mean([rouge_l(tokenize(g), tokenize(r)).f1 for g, r in zip(generated, references)])
        )
        report = evaluate(generated, references, "dpo")
        assert report.rl == expected_rl

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(["a"], ["a", "b"], "base")

    @pytest.mark.parametrize(
        "generated, references, message",
        [
            ("ab", ["a", "b"], "generated must be a sequence of strings, got 'ab'"),
            (["a", "b"], "ab", "references must be a sequence of strings, got 'ab'"),
            ([5], ["a"], "generated[0] must be a string, got 5"),
            (["a", "b"], ["a", 1.5], "references[1] must be a string, got 1.5"),
            (["a", None], ["a", "b"], "generated[1] must be a string, got None"),
        ],
        ids=["bare-generated", "bare-references", "int-generated", "float-reference", "none-generated"],
    )
    def test_a_bare_string_or_a_non_string_text_is_refused_by_name(self, generated, references, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            evaluate(generated, references, "x")

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(19)
        generated = ["a b", "c d e", "a c", "b d"]
        references = ["a b c", "c e", "c a", "d"]
        base = evaluate(generated, references, "x")
        order = rng.permutation(len(generated))
        shuffled = evaluate(
            [generated[i] for i in order], [references[i] for i in order], "x"
        )
        for column in ("r1", "r2", "rl", "meteor", "semantic"):
            assert getattr(base, column) == pytest.approx(getattr(shuffled, column), abs=1e-15)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="got none"):
            evaluate([], [], "x")



def hexed(reports):
    """Each report as its config name and the float.hex of every score."""
    return [(r.config_name, *map(float.hex, astuple(r)[1:])) for r in reports]


# Devanagari words with combining marks (virama, vowel signs), the danda and
# double danda, Latin in both cases and café composed and decomposed.
_WORDS = ["यह", "खबर", "गलत", "है", "दावे", "की", "पुष्टि", "नहीं", "हुई", "क्षि", "।", "॥",
          "Fact", "fact", "café", unicodedata.normalize("NFD", "café"), "ि", "्"]
_EVAL_TEXTS = (
    st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join)
    | st.text(alphabet="aAb .।कखगा्ि", max_size=20)
    | st.just("")
)


@st.composite
def eval_cases(draw):
    """(outputs, references): 1-5 configs in any order over 1-6 references
    drawn with repeats from a small pool; a config's outputs are empty,
    copies of an earlier config's, references or fresh texts."""
    pool = draw(st.lists(_EVAL_TEXTS, min_size=1, max_size=4))
    references = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    outputs = {}
    for name in draw(st.permutations(CONFIG_ORDER))[: draw(st.integers(1, 5))]:
        if outputs and draw(st.booleans()):
            outputs[name] = list(draw(st.sampled_from(list(outputs.values()))))
        else:
            text = st.just("") | st.sampled_from(pool) | _EVAL_TEXTS
            outputs[name] = draw(st.lists(text, min_size=len(references), max_size=len(references)))
    return outputs, references


class TestEvaluateConfigs:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(case=eval_cases())
    @example(case=({"base": ["यह खबर गलत है।"], "dpo": ["दावे की पुष्टि नहीं हुई॥"]}, ["यह खबर गलत है।"]))
    @example(case=({name: ["", ""] for name in CONFIG_ORDER}, ["पुष्टि नहीं", "पुष्टि नहीं"]))
    @example(case=({name: ["क्षि ।", "a b"] for name in CONFIG_ORDER}, ["क्षि । a", "a b"]))
    def test_one_pass_equals_the_per_config_loop_bit_for_bit(self, case):
        outputs, references = case
        expected = evaluate_per_config(outputs, references)
        assert hexed(evaluate_configs(outputs, references)) == hexed(expected)
        for name, report in zip(outputs, expected):
            assert hexed([evaluate(outputs[name], references, name)]) == hexed([report])

    def test_a_custom_scorer_is_called_once_per_reference_with_every_config(self):
        calls = []

        def recording(cands, ref):
            calls.append((list(cands), ref))
            return [len(cand) / 10 for cand in cands]

        outputs = {
            "hin_dpo": ["a b", "c", "d e f", "g"],
            "base": ["x", "c", "", "g h"],
            "dpo": ["a b", "y z", "d", "g"],
        }
        references = ["a b c", "c d", "d e", "g h"]
        reports = evaluate_configs(outputs, references, semantic=recording)
        assert calls == [([outputs[name][i] for name in outputs], references[i]) for i in range(4)]
        assert [r.config_name for r in reports] == ["hin_dpo", "base", "dpo"]
        assert hexed(reports) == hexed(evaluate_per_config(outputs, references, recording))

    def test_a_wrong_length_result_names_the_reference(self):
        calls = []

        def scorer(cands, ref):
            calls.append(list(cands))
            return [0.5] * (len(cands) if len(calls) < 3 else len(cands) - 1)

        outputs = {name: ["a b", "c d", "e f", "g h"] for name in ("base", "dpo", "hin_dpo")}
        with pytest.raises(ValueError, match="of pair 2;"):
            evaluate_configs(outputs, ["a c", "c d", "e g", "g h"], semantic=scorer)
        assert calls == [["a b"] * 3, ["c d"] * 3, ["e f"] * 3]

    @pytest.mark.parametrize(
        "outputs, references, message",
        [
            ({"base": ["a", "b"], "dpo": ["a"]}, ["x", "y"], "outputs['dpo'] and references must have equal length: 1 vs 2"),
            ({"base": ["a"], "dpo": "a"}, ["x"], "outputs['dpo'] must be a sequence of strings, got 'a'"),
            ({"base": ["a", 5]}, ["x", "y"], "outputs['base'][1] must be a string, got 5"),
            ({"base": ["a"]}, [None], "references[0] must be a string, got None"),
            ({}, ["x"], "evaluate_configs needs at least one config, got none"),
            ({"base": []}, [], "evaluate_configs needs at least one reference, got none"),
            ([["a"]], ["x"], "outputs must map each config name to its texts, got list"),
        ],
        ids=["short-config", "bare-string", "non-string", "bad-reference", "no-config", "no-reference", "list"],
    )
    def test_bad_outputs_are_refused_naming_the_config(self, outputs, references, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            evaluate_configs(outputs, references)

def sample_reports():
    return [
        MetricReport("dpo", 0.30, 0.20, 0.28, 0.25, 0.60),
        MetricReport("base", 0.10, 0.05, 0.08, 0.09, 0.40),
        MetricReport("hin_dpo", 0.35, 0.22, 0.33, 0.30, 0.70),
    ]


class TestReportTable:
    def test_single_config_all_best(self):
        text = report_table([MetricReport("base", 0.1, 0.2, 0.3, 0.4, 0.5)])
        row = text.splitlines()[1]
        assert row.count("*") == 5

    def test_rows_follow_config_order(self):
        text = report_table(sample_reports())
        names = [line.split()[0] for line in text.splitlines()[1:]]
        assert names == ["base", "dpo", "hin_dpo"]

    def test_best_marking_per_column(self):
        parsed = parse_table(report_table(sample_reports()))
        assert parsed["hin_dpo"]["r1"] == 35.0
        text = report_table(sample_reports())
        hin_row = next(line for line in text.splitlines() if line.startswith("hin_dpo"))
        assert hin_row.count("*") == 5

    def test_round_trip(self):
        reports = sample_reports()
        parsed = parse_table(report_table(reports))
        for report in reports:
            for column in ("r1", "r2", "rl", "meteor", "semantic"):
                rendered = float("%.2f" % (getattr(report, column) * 100))
                assert parsed[report.config_name][column] == rendered

    def test_json_companion(self, tmp_path):
        path = tmp_path / "report.json"
        report_table(sample_reports(), json_path=path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert [entry["config"] for entry in payload] == ["base", "dpo", "hin_dpo"]
        assert payload[-1]["r1"] == 0.35

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report_table([])

    def test_known_config_order_constant(self):
        assert CONFIG_ORDER == ("base", "dpo", "dpo_act", "dpo_fin", "hin_dpo")
