import itertools
import re
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hindpo import textmetrics
from hindpo.textmetrics import (
    _position_masks,
    _walk,
    char_trigram_cosine,
    final_score,
    meteor,
    rouge_l,
    rouge_n,
    tokenize,
)

from hindpo.corpora import toy_corpus
from hindpo.dataforge import forge, score_and_rank
from hindpo.evalharness import evaluate
from oracles import (
    alignment_counts,
    batched,
    lcs_dp,
    meteor_reference,
    ngram_overlap_brute,
    rouge_l_f1_brute,
    stack_alignment,
    tokenize_loop,
    trigram_cosine,
    trigram_profile_cosine,
)

# Hand-tokenized fixture sentences: Latin, Devanagari, and mixed content.
TOKENIZE_FIXTURE = [
    ("fake news!", ["fake", "news"]),
    ("क ख ग", ["क", "ख", "ग"]),
    ("", []),
    ("  spaced   out  ", ["spaced", "out"]),
    ("Breaking: This Is FAKE.", ["breaking", "this", "is", "fake"]),
    ("यह खबर झूठी है।", ["यह", "खबर", "झूठी", "है"]),
    ("दावा, जांच और पुष्टि", ["दावा", "जांच", "और", "पुष्टि"]),
    ("fact-check now", ["fact", "check", "now"]),
    ("don't panic", ["don", "t", "panic"]),
    ("COVID-19 के 2,000 मामले", ["covid", "19", "के", "2", "000", "मामले"]),
    ("(quoted) 'text'", ["quoted", "text"]),
    ("सोशल मीडिया पर वायरल", ["सोशल", "मीडिया", "पर", "वायरल"]),
    ("Modi जी का बयान", ["modi", "जी", "का", "बयान"]),
    ("one.two;three", ["one", "two", "three"]),
    ("क्या यह सच है?", ["क्या", "यह", "सच", "है"]),
    ("A  B\tC\nD", ["a", "b", "c", "d"]),
    ("जांच-पड़ताल पूरी", ["जांच", "पड़ताल", "पूरी"]),
    ("100% गलत", ["100", "गलत"]),
    ("ई-मेल भेजा", ["ई", "मेल", "भेजा"]),
    ("The END.", ["the", "end"]),
]


def _toy_texts() -> list[str]:
    return [
        text
        for record in toy_corpus()
        for text in (record.news_text, record.ground_truth_explanation, *(c.text for c in record.candidates))
    ]


def _long_explanations() -> list[str]:
    # 400 explanations of 40-80 words drawn from the toy corpus and
    # mixed-case Latin, joined by spaces and punctuation.
    rng = np.random.default_rng(17)
    words = sorted({w for text in _toy_texts() for w in text.split()})
    words += ["Fact", "CHECK", "viral", "Claim", "COVID-19", "WhatsApp", "Modi"]
    joins = [" ", " ", " ", ", ", "। ", "-", "\n", "? ", " (", ") "]
    texts = []
    for _ in range(400):
        n = int(rng.integers(40, 81))
        picked = rng.integers(0, len(words), n)
        glue = rng.integers(0, len(joins), n)
        texts.append("".join(words[w] + joins[g] for w, g in zip(picked, glue)))
    return texts


# Separators and case-folding corner cases: U+0130 lowercases to two
# characters; U+0085, U+00A0, U+001C-U+001F, U+2028/9 and U+3000 are
# whitespace; U+200B, U+200D and U+FEFF are not; U+0964/5 are dandas.
_EDGE_CODE_POINTS = [0x130, 0x85, 0xA0, 0x1C, 0x1D, 0x1E, 0x1F, 0x2028, 0x2029, 0x3000, 0x200B, 0x200D, 0xFEFF, 0x964, 0x965]


def _random_strings() -> list[str]:
    # Latin, Latin-1, Latin Extended-A/B and Devanagari (whose nuktas and
    # matras recompose under NFC), plus the corner cases above.
    pool = [
        chr(cp)
        for cp in [*range(0x20, 0x7F), *range(0xA0, 0x250), *range(0x900, 0x980), *_EDGE_CODE_POINTS]
    ]
    rng = np.random.default_rng(29)
    return ["".join(pool[i] for i in rng.integers(0, len(pool), rng.integers(0, 30))) for _ in range(20000)]


# Inputs at the edges of the integer-coded kernels: lone surrogates, astral
# code points up to U+10FFFF (which needs all 21 bits of a key field), and
# combining marks that NFC composes onto the letter before them.
_KERNEL_POOL = [
    *"aAbB é.",
    "\u0301", "\u0308", "\u093c", "क", "ख", "ा", "्",
    "\ud800", "\udbff", "\udc00", "\udfff",
    "\U00010000", "\U0001f600", "\U000fffff", "\U0010fffe", "\U0010ffff",
]


def _kernel_edge_strings() -> list[str]:
    # Every string of length 0-3 over a small alphabet, then repeated
    # trigrams and NFD spellings.
    alphabet = ["a", "\ud800", "\U0010ffff", "\u0301"]
    short = ["".join(chars) for n in range(4) for chars in itertools.product(alphabet, repeat=n)]
    repeated = [
        "aaaa", "aaaaaaa", "abcabcabc", "abab", "\U0010ffff" * 5, "\ud800\ud800\ud800\ud800",
        "a\U0010ffffa\U0010ffffa", "कककक", "खा खा खा",
    ]
    decomposed = [unicodedata.normalize("NFD", t) for t in ("café résumé", "Ǻngström", "क़ा ख़ा", "éééé")]
    return short + repeated + decomposed


def _kernel_random_strings() -> list[str]:
    # 2,000 seeded strings over the pool above, a tenth of their characters
    # drawn from anywhere in U+10000-U+10FFFF instead.
    rng = np.random.default_rng(41)
    texts = []
    for _ in range(2000):
        n = int(rng.integers(0, 40))
        chars = [_KERNEL_POOL[i] for i in rng.integers(0, len(_KERNEL_POOL), n)]
        for at in np.flatnonzero(rng.random(n) < 0.1):
            chars[at] = chr(int(rng.integers(0x10000, 0x110000)))
        texts.append("".join(chars))
    return texts


def _kernel_pairs() -> list[tuple[str, str]]:
    # Each candidate against the next string, that string's NFD form, a
    # copy of itself with a suffix, and itself.
    texts = _kernel_edge_strings() + _kernel_random_strings()
    pairs = []
    for cand, other in zip(texts, texts[1:] + texts[:1]):
        pairs += [(cand, other), (cand, unicodedata.normalize("NFD", other)), (cand, cand + "a"), (cand, cand)]
    return pairs


class TestTokenize:
    @pytest.mark.parametrize("text,expected", TOKENIZE_FIXTURE)
    def test_fixture(self, text, expected):
        assert tokenize(text) == expected

    @pytest.mark.parametrize(
        "texts", [_toy_texts, _long_explanations, _random_strings, _kernel_edge_strings, _kernel_random_strings]
    )
    def test_matches_character_loop_oracle(self, texts):
        for text in texts():
            assert tokenize(text) == tokenize_loop(text)

    def test_fold_table_stays_bounded_past_its_limit(self):
        # Tokenizing three times as many distinct code points as the table
        # holds leaves it within its limit, and the code points past it
        # still fold right.
        from hindpo import textmetrics

        codes = range(0x20, 0x20 + 3 * textmetrics._FOLD_LIMIT)
        assert textmetrics._FOLD_LIMIT == 4096
        for start in range(0, len(codes), 64):
            text = "".join(map(chr, codes[start : start + 64]))
            assert tokenize(text) == tokenize_loop(text)
        assert len(textmetrics._FOLD) <= textmetrics._FOLD_LIMIT

    def test_idempotent_on_normalized_tokens(self):
        for text, _ in TOKENIZE_FIXTURE:
            tokens = tokenize(text)
            assert tokenize(" ".join(tokens)) == tokens

    def test_devanagari_clusters_survive(self):
        # Conjuncts and matras stay attached to their base consonants.
        assert tokenize("क्या") == ["क्या"]
        assert tokenize("पुष्टि") == ["पुष्टि"]

    def test_nfc_normalization(self):
        # Decomposed + composed spellings of the same word tokenize equally.
        decomposed = "क़ा"  # ka + nukta + aa
        composed = "क़ा"
        assert tokenize(decomposed) == tokenize(composed)

    def test_no_empty_tokens(self):
        for text, _ in TOKENIZE_FIXTURE:
            assert all(tok for tok in tokenize(text))

    def test_deterministic_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        texts = [text for text, _ in TOKENIZE_FIXTURE] * 10
        expected = [tokenize(t) for t in texts]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(tokenize, texts))
        assert results == expected


class TestRougeN:
    def test_bigram_example(self):
        score = rouge_n(["a", "b", "c"], ["a", "b", "d"], 2)
        assert (score.precision, score.recall, score.f1) == (0.5, 0.5, 0.5)

    def test_identity(self):
        score = rouge_n(["x", "y"], ["x", "y"], 1)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_no_bigrams(self):
        score = rouge_n(["a"], ["b"], 2)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "n, message",
        [(0, "n must be >= 1, got 0"), ("x", "n must be an integer, got 'x'"), (1.5, "n must be an integer, got 1.5"), (True, "n must be an integer, got True")],
        ids=["zero", "str", "float", "bool"],
    )
    def test_invalid_n(self, n, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            rouge_n(["a"], ["a"], n)

    def test_matches_multiset_oracle(self):
        rng = np.random.default_rng(7)
        alphabet = list("abc")
        for _ in range(300):
            cand = [alphabet[i] for i in rng.integers(0, 3, rng.integers(0, 9))]
            ref = [alphabet[i] for i in rng.integers(0, 3, rng.integers(0, 9))]
            for n in (1, 2, 3):
                got = rouge_n(cand, ref, n)
                n_cand = max(len(cand) - n + 1, 0)
                n_ref = max(len(ref) - n + 1, 0)
                if n_cand == 0 or n_ref == 0:
                    assert got == rouge_n([], [], n)
                    continue
                overlap = ngram_overlap_brute(cand, ref, n)
                assert got.precision == overlap / n_cand
                assert got.recall == overlap / n_ref
                assert got.f1 <= max(got.precision, got.recall) + 1e-15


class TestRougeL:
    def test_worked_example(self):
        score = rouge_l(list("abcd"), list("acd"))
        assert score.precision == 0.75
        assert score.recall == 1.0
        assert score.f1 == pytest.approx(0.8571428571428571, abs=1e-15)

    def test_identity(self):
        assert rouge_l(["x", "y", "z"], ["x", "y", "z"]).f1 == 1.0

    def test_empty_reference(self):
        assert rouge_l(["a"], []) == rouge_l([], [])

    def test_exhaustive_short_pairs_match_brute_force(self):
        alphabet = "abc"
        sequences = [
            seq
            for length in range(5)
            for seq in itertools.product(alphabet, repeat=length)
        ]
        for cand in sequences:
            for ref in sequences:
                assert rouge_l(list(cand), list(ref)).f1 == rouge_l_f1_brute(cand, ref)

    def test_random_long_pairs_match_brute_force(self):
        rng = np.random.default_rng(11)
        alphabet = list("abc")
        for _ in range(200):
            cand = [alphabet[i] for i in rng.integers(0, 3, 8)]
            ref = [alphabet[i] for i in rng.integers(0, 3, 8)]
            assert rouge_l(cand, ref).f1 == rouge_l_f1_brute(cand, ref)

    def test_matches_dp_oracle_on_random_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(20000):
            size = int(rng.integers(1, 9))
            a = ["t%d" % i for i in rng.integers(0, size, rng.integers(0, 81))]
            b = ["t%d" % i for i in rng.integers(0, size, rng.integers(0, 81))]
            assert _walk(a, b) == (lcs_dp(a, b), *alignment_counts(a, b))

    def test_matches_dp_oracle_across_word_boundaries(self):
        # Reference lengths 60-300 put the position masks across the 64- and
        # 128-bit boundaries, with small and large alphabets.
        rng = np.random.default_rng(43)
        for size in (2, 8, 40, 400):
            for _ in range(15):
                a = ["t%d" % i for i in rng.integers(0, size, rng.integers(60, 301))]
                b = ["t%d" % i for i in rng.integers(0, size, rng.integers(60, 301))]
                assert _walk(a, b) == (lcs_dp(a, b), *alignment_counts(a, b))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 300])
    def test_distinct_and_identical_pairs(self, n):
        rng = np.random.default_rng(n)
        tokens = ["t%d" % i for i in range(n)]
        shuffled = [tokens[i] for i in rng.permutation(n)]
        assert _walk(tokens, tokens) == (n, n, 1)
        assert _walk(shuffled, shuffled) == (n, n, 1)
        assert _walk(tokens, ["u%d" % i for i in range(n)]) == (0, 0, 0)
        assert _walk(tokens, shuffled) == (lcs_dp(tokens, shuffled), *alignment_counts(tokens, shuffled))
        assert _walk(shuffled, tokens) == (lcs_dp(shuffled, tokens), *alignment_counts(shuffled, tokens))


class TestMeteor:
    def test_identity_penalty(self):
        # Perfect match still pays the single-chunk penalty 0.5 / 27.
        assert meteor(list("xyz"), list("xyz")) == pytest.approx(1 - 0.5 / 27, abs=1e-12)

    def test_gap_example(self):
        assert meteor(["x", "z"], ["x", "y", "z"]) == pytest.approx(10 / 29, abs=1e-12)

    def test_no_match(self):
        assert meteor(["a"], ["b"]) == 0.0
        assert meteor([], ["b"]) == 0.0

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(3)
        # Short draws over four symbols, then long repetitive ones in which
        # every token recurs and later matches must skip claimed positions.
        for n_symbols, max_len, trials in [(4, 9, 500), *((n, 80, 500) for n in range(2, 7))]:
            alphabet = list("abcdef"[:n_symbols])
            for _ in range(trials):
                cand = [alphabet[i] for i in rng.integers(0, n_symbols, rng.integers(1, max_len + 1))]
                ref = [alphabet[i] for i in rng.integers(0, n_symbols, rng.integers(1, max_len + 1))]
                assert meteor(cand, ref) == pytest.approx(meteor_reference(cand, ref), abs=1e-14)


# Paraphrase vs unrelated text, 10 hand-built triples.
SEMANTIC_FIXTURE = [
    ("यह खबर गलत है", "यह खबर झूठी है", "आज मौसम सुहाना रहेगा"),
    ("दावे की पुष्टि नहीं हुई", "इस दावे की पुष्टि नहीं हो सकी", "क्रिकेट मैच रोमांचक था"),
    ("वीडियो एडिट किया गया है", "वीडियो को एडिट किया गया", "नई सड़क का उद्घाटन हुआ"),
    ("the claim is false", "this claim is false", "sunny weather expected today"),
    ("जांच में सच पाया गया", "जांच के बाद सच पाया गया", "बाजार में भीड़ थी"),
    ("तस्वीर पुरानी है", "यह तस्वीर बहुत पुरानी है", "स्कूल में छुट्टी घोषित"),
    ("news report verified true", "the news report was verified true", "recipe for lemon cake"),
    ("बयान को तोड़ा मरोड़ा गया", "बयान तोड़ मरोड़ कर पेश किया गया", "ट्रेन समय पर पहुंची"),
    ("कोई प्रमाण नहीं मिला", "इसका कोई प्रमाण नहीं मिला है", "फिल्म अच्छी कमाई कर रही"),
    ("viral message is misleading", "the viral message is misleading", "garden full of flowers"),
]


class TestSemanticScore:
    def test_identity_exact_one(self):
        assert char_trigram_cosine(["क ख ग"], "क ख ग")[0] == 1.0
        assert char_trigram_cosine(["abc"], "abc")[0] == 1.0

    def test_disjoint_trigrams_zero(self):
        assert char_trigram_cosine(["क ख"], "य र")[0] == 0.0

    def test_paraphrase_above_unrelated(self):
        for anchor, paraphrase, unrelated in SEMANTIC_FIXTURE:
            assert char_trigram_cosine([paraphrase], anchor)[0] > char_trigram_cosine([unrelated], anchor)[0]

    def test_range(self):
        for anchor, paraphrase, unrelated in SEMANTIC_FIXTURE:
            for text in (paraphrase, unrelated):
                assert 0.0 <= char_trigram_cosine([text], anchor)[0] <= 1.0

    def test_matches_uncached_oracle_with_alternating_references(self):
        texts = [text for triple in SEMANTIC_FIXTURE for text in triple] + _toy_texts()[:60]
        for i, cand in enumerate(texts):
            for ref in (texts[(i + 1) % len(texts)], texts[(i + 7) % len(texts)], cand):
                expected = trigram_cosine(cand, ref)
                assert char_trigram_cosine([cand], ref)[0] == expected

    def test_matches_oracle_at_the_edges(self):
        # Lengths 0-3, repeated trigrams, lone surrogates, astral code points
        # and NFD references.
        for cand, ref in _kernel_pairs():
            expected = trigram_cosine(cand, ref)
            assert char_trigram_cosine([cand], ref)[0] == expected, (cand, ref)

    def test_nfd_reference_scores_one_against_its_nfc_candidate(self):
        composed = "café की जांच, résumé"
        decomposed = unicodedata.normalize("NFD", composed)
        assert decomposed != composed
        assert char_trigram_cosine([composed], decomposed)[0] == 1.0
        assert char_trigram_cosine([decomposed], composed)[0] == 1.0

    def test_forge_ranks_as_with_the_oracle(self):
        # 60 generated articles with 40-80-token explanations in Devanagari
        # and mixed-case Latin, some NFD: the default scorer and the oracle
        # give equal pairs, final scores included.
        from hindpo.dataforge import ArticleRecord, Candidate

        rng = np.random.default_rng(53)
        words = sorted({w for text in _toy_texts() for w in text.split()}) + ["Café", "RÉSUMÉ", "Fact-Check"]

        def text(n):
            return " ".join(words[i] for i in rng.integers(0, len(words), n))

        records = []
        for k in range(60):
            truth = text(int(rng.integers(40, 81)))
            tokens = truth.split()
            near = " ".join(t if rng.random() > 0.1 else text(1) for t in tokens)
            partial = " ".join(tokens[: len(tokens) // 2]) + " " + text(len(tokens) - len(tokens) // 2)
            candidates = [near, partial, text(len(tokens))]
            if k % 3 == 0:
                candidates[0] = unicodedata.normalize("NFD", candidates[0])
            order = rng.permutation(3)
            records.append(
                ArticleRecord(
                    id="a%03d" % k,
                    label="fake" if k % 2 else "real",
                    news_text=text(12),
                    ground_truth_explanation=truth,
                    candidates=[Candidate("m%d" % i, candidates[i]) for i in order],
                )
            )
        default, oracle = forge(records), forge(records, semantic=batched(trigram_cosine))
        assert default.curriculum.stages == oracle.curriculum.stages
        assert (default.val_pairs, default.test_pairs) == (oracle.val_pairs, oracle.test_pairs)
        assert len({pair.fs for pair in default.curriculum.all_pairs()}) > 100

    def test_a_failing_scorer_propagates_from_forge_and_evaluate(self):
        # A provider failure is never mapped silently to a score of 0.
        class ProviderDown(Exception):
            pass

        def failing(cand, ref):
            raise ProviderDown("provider unreachable")

        with pytest.raises(ProviderDown, match="provider unreachable"):
            forge(toy_corpus()[:4], semantic=batched(failing))
        with pytest.raises(ProviderDown, match="provider unreachable"):
            evaluate(["a b"], ["a c"], "base", semantic=batched(failing))

    @pytest.mark.parametrize(
        "result",
        [[0.5, 0.5], [0.5] * 4, [], [0.5, float("nan"), 0.5], [0.5, float("inf"), 0.5],
         [0.5, "0.5", 0.5], [0.5, None, 0.5], [True, 0.5, 0.5], 0.5, None,
         [0.5, 5.0, 0.5], [0.5, -0.25, 0.5], [0.5, 10**400, 0.5]],
        ids=["two", "four", "none", "nan", "inf", "str", "None", "bool", "a-float", "no-list",
             "above-one", "below-zero", "int-too-large-for-a-float"],
    )
    def test_a_scorer_breaking_the_contract_fails_naming_the_article(self, result):
        # One real number per candidate, or a ValueError naming the article,
        # never a candidate silently dropped by zip.
        record = toy_corpus()[5]
        with pytest.raises(ValueError, match="of article %r" % record.id):
            score_and_rank(record, lambda cands, ref: result)
        with pytest.raises(ValueError, match="of article '"):
            forge(toy_corpus()[:4], semantic=lambda cands, ref: result)

    @pytest.mark.parametrize(
        "result",
        [[], [0.5, 0.5], [float("nan")], ["0.5"], [None], [False], 0.5, [np.float32("nan")], [np.bool_(True)],
         [5.0], [np.float64(-0.25)], [2], [10**400]],
        ids=["none", "two", "nan", "str", "None", "bool", "a-float", "numpy-nan", "numpy-bool",
             "above-one", "numpy-below-zero", "int-above-one", "int-too-large-for-a-float"],
    )
    def test_a_scorer_breaking_the_contract_fails_naming_the_pair(self, result):
        calls = []

        def scorer(cands, ref):
            calls.append(cands)
            return [0.5] if len(calls) < 3 else result

        with pytest.raises(ValueError, match="of pair 2;"):
            evaluate(["a b", "c d", "e f", "g h"], ["a c", "c d", "e g", "g h"], "base", semantic=scorer)
        assert calls == [["a b"], ["c d"], ["e f"]]

    def test_numpy_scores_are_real_numbers(self):
        record = toy_corpus()[5]
        expected = score_and_rank(record)
        assert score_and_rank(record, lambda cands, ref: np.array(char_trigram_cosine(cands, ref))) == expected
        assert score_and_rank(record, lambda cands, ref: tuple(char_trigram_cosine(cands, ref))) == expected
        for score in (np.int64(1), np.float32(0.5), 1, 0.5):
            assert evaluate(["a b"], ["a c"], "base", semantic=lambda cands, ref: [score]).semantic == score

    def test_forge_calls_the_scorer_and_builds_a_reference_table_once_per_article(self, monkeypatch):
        # Each toy article with its id appended to its ground truth, so no
        # two articles share a reference.
        from dataclasses import replace

        records = [replace(r, ground_truth_explanation="%s %s" % (r.ground_truth_explanation, r.id)) for r in toy_corpus()]
        calls, keys = [], []

        def counting(cands, ref):
            calls.append((list(cands), ref))
            return char_trigram_cosine(cands, ref)

        cached = textmetrics._position_masks

        def recording(ref):
            keys.append(ref)
            return cached(ref)

        # Every table the walk reads comes through the one-entry cache; a
        # miss builds one. As many misses as distinct references, each of
        # them a ground truth, is one build per article.
        monkeypatch.setattr(textmetrics, "_position_masks", recording)
        cached.cache_clear()
        result = forge(records, semantic=counting)
        info = cached.cache_info()
        truths = sorted(r.ground_truth_explanation for r in records)
        assert len(set(truths)) == len(records) == 60
        assert sorted(ref for _, ref in calls) == truths
        assert all(len(cands) == 3 for cands, _ in calls)
        assert sorted(set(keys)) == sorted(tuple(tokenize(truth)) for truth in truths)
        assert (info.misses, info.hits, info.maxsize) == (len(records), 2 * len(records), 1) == (60, 120, 1)
        monkeypatch.undo()
        default = forge(records)
        assert (result.curriculum.stages, result.val_pairs, result.test_pairs) == (
            default.curriculum.stages, default.val_pairs, default.test_pairs
        )


class TestFinalScore:
    def test_spot_values(self):
        assert final_score(0.90, 0.30, 0.30) == 0.675
        assert final_score(0.0, 0.0, 0.0) == 0.0
        assert final_score(0.95, 0.35, 0.35) == 0.7625

    def test_maximum(self):
        assert final_score(1.0, 1.0, 1.0) == 1.75

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            final_score(1.2, 0.5, 0.5)
        with pytest.raises(ValueError):
            final_score(0.5, -0.1, 0.5)

    @pytest.mark.parametrize("name", ["semantic", "rouge_l_f1", "meteor_score"])
    @pytest.mark.parametrize("value", ["x", None, [0.5]], ids=["str", "None", "list"])
    def test_not_a_number_is_refused_by_name(self, name, value):
        arguments = {"semantic": 0.5, "rouge_l_f1": 0.5, "meteor_score": 0.5, name: value}
        with pytest.raises(ValueError, match="^%s must be a number, got %s$" % (name, re.escape(repr(value)))):
            final_score(**arguments)

    def test_strictly_increasing_each_argument(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s, r, m = rng.uniform(0, 0.9, 3)
            delta = float(rng.uniform(1e-6, 0.1))
            base = final_score(s, r, m)
            assert final_score(s + delta, r, m) > base
            assert final_score(s, r + delta, m) > base
            assert final_score(s, r, m + delta) > base


class TestSelfSimilarityIsMaximal:
    def test_each_metric(self):
        corpus = [anchor for anchor, _, _ in SEMANTIC_FIXTURE]
        for text in corpus:
            tokens = tokenize(text)
            self_rl = rouge_l(tokens, tokens).f1
            self_mt = meteor(tokens, tokens)
            self_r1 = rouge_n(tokens, tokens, 1).f1
            self_sem = char_trigram_cosine([text], text)[0]
            for other in corpus:
                other_tokens = tokenize(other)
                assert rouge_l(tokens, other_tokens).f1 <= self_rl
                assert meteor(tokens, other_tokens) <= self_mt
                assert rouge_n(tokens, other_tokens, 1).f1 <= self_r1
                assert char_trigram_cosine([text], other)[0] <= self_sem


# Text drawn from all of Unicode, or from a mix of Latin, Devanagari
# (with a virama and a vowel sign), punctuation and whitespace that
# exercises the separator and case rules far more often.
_TEXTS = st.text() | st.text(alphabet="aAbB .,!?।\t\nकखगा्ि")
_TOKENS = st.lists(st.sampled_from("abcdef"), max_size=40)
# Two token lists over one alphabet of 1, 2, 3 or 6 tokens, so repeats abound.
_TOKEN_PAIRS = st.sampled_from(["a", "ab", "abc", "abcdef"]).flatmap(
    lambda alphabet: st.tuples(*[st.lists(st.sampled_from(alphabet), max_size=40)] * 2)
)
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=500)
_TABLES = settings(derandomize=True, deadline=None, max_examples=200)


class TestProperties:
    @_PROPERTY
    @given(text=_TEXTS)
    def test_tokenize_tokens_are_nonempty_unbroken_and_stable(self, text):
        tokens = tokenize(text)
        assert all(token and not any(ch.isspace() for ch in token) for token in tokens)
        assert tokenize(" ".join(tokens)) == tokens

    @_PROPERTY
    @given(sides=_TOKEN_PAIRS)
    @example(sides=([], []))
    @example(sides=([], list("aab")))
    @example(sides=(list("aab"), []))
    @example(sides=(list("aaaa"), list("aa")))
    def test_walk_is_the_dynamic_program_and_the_stack_alignment(self, sides):
        a, b = sides
        assert _walk(a, b) == (lcs_dp(a, b), *alignment_counts(a, b))
        assert _bits([meteor(a, b)]) == _bits([meteor_reference(a, b)])

    @_PROPERTY
    @given(a=_TOKENS, b=_TOKENS)
    def test_rouge_l_f1_is_symmetric_and_in_unit_interval(self, a, b):
        f1 = rouge_l(a, b).f1
        assert f1 == rouge_l(b, a).f1
        assert 0.0 <= f1 <= 1.0

    @_PROPERTY
    @given(a=_TOKENS, b=_TOKENS)
    def test_meteor_in_unit_interval(self, a, b):
        assert 0.0 <= meteor(a, b) <= 1.0

    @_PROPERTY
    @given(cand=_TEXTS, ref=_TEXTS)
    def test_trigram_cosine_in_unit_interval_and_one_on_identity(self, cand, ref):
        assert 0.0 <= char_trigram_cosine([cand], ref)[0] <= 1.0
        if ref:
            assert char_trigram_cosine([ref], ref)[0] == 1.0


# Any code point, lone surrogates and U+10FFFF included, or one of the
# kernel pool's combining marks, surrogates and astral characters.
_ANY_CHAR = st.integers(0, 0x10FFFF).map(chr) | st.sampled_from(_KERNEL_POOL)
_SHORT = st.lists(_ANY_CHAR, max_size=3).map("".join)
_WIDE = st.lists(_ANY_CHAR, max_size=12).map("".join)
_ANY_TEXT = _TEXTS | _SHORT | _WIDE


def _nfd(text: str) -> str:
    return unicodedata.normalize("NFD", text)


@st.composite
def _article_texts(draw):
    # A reference, maybe NFD, and 0-5 candidates: free texts, the
    # reference itself in any normal form, a piece of it between two short
    # texts (so trigrams are shared but the strings differ), and repeats
    # of an earlier candidate.
    ref = draw(_ANY_TEXT | _ANY_TEXT.map(_nfd))
    cands = []
    for kind in draw(st.lists(st.integers(0, 3), max_size=5)):
        if kind == 0:
            cands.append(draw(_ANY_TEXT | _ANY_TEXT.map(_nfd)))
        elif kind == 1:
            cands.append(draw(st.sampled_from([ref, _nfd(ref), unicodedata.normalize("NFC", ref)])))
        elif kind == 2:
            start, stop = sorted(draw(st.lists(st.integers(0, len(ref)), min_size=2, max_size=2)))
            cands.append(draw(_SHORT) + ref[start:stop] + draw(_SHORT))
        elif cands:
            cands.append(draw(st.sampled_from(cands)))
    return cands, ref


def _bits(values) -> list[str]:
    return [float.hex(value) for value in values]


class TestSharedTables:
    @_TABLES
    @given(article=_article_texts())
    def test_trigram_scores_equal_the_oracle_bit_for_bit(self, article):
        cands, ref = article
        scores = char_trigram_cosine(cands, ref)
        assert _bits(scores) == _bits(trigram_cosine(cand, ref) for cand in cands)
        assert _bits(scores) == _bits(trigram_profile_cosine(cand, ref) for cand in cands)
        assert _bits(char_trigram_cosine([cand], ref)[0] for cand in cands) == _bits(scores)

    @pytest.mark.parametrize(
        "cands, ref",
        [
            (["", "a", "ab", "\ud800b", "ab"], "xy"),
            (["ab", "aa"], "aa"),
            (["abcd", "x"], "xy"),
            ([], "abcd"),
            ([], ""),
            (["abcabc", "abcabc", "abcabc"], "abcabc"),
            (["aaaaaa", "aaa"], "aaaa"),
            (["\ud800\udfff\ud800", "\ud800\ud800\ud800\ud800", "a\udc00b\ud800", "\udfff"], "\ud800\ud800\ud800\udfff\ud800"),
        ],
        ids=[
            "no-trigram", "no-trigram-identical", "candidate-only", "no-candidate", "nothing",
            "identical", "one-key", "lone-surrogates",
        ],
    )
    def test_trigram_run_boundaries_equal_the_oracle_bit_for_bit(self, cands, ref):
        # Texts without a trigram, no candidate, identical texts and lone
        # surrogates: the cases the sorted run starts of one table must handle.
        assert _bits(char_trigram_cosine(cands, ref)) == _bits(trigram_cosine(cand, ref) for cand in cands)

    def test_trigram_scores_of_the_long_explanations(self):
        texts = _long_explanations()
        for i in range(0, len(texts), 4):
            ref, *cands = texts[i : i + 4]
            cands += [ref, _nfd(ref), ref[: len(ref) // 2]]
            assert _bits(char_trigram_cosine(cands, ref)) == _bits(trigram_cosine(cand, ref) for cand in cands)

    @_TABLES
    @given(refs=st.lists(_TOKENS, min_size=1, max_size=3), cands=st.lists(_TOKENS, max_size=6))
    def test_lcs_from_the_shared_table_is_the_dynamic_program(self, refs, cands):
        # Each candidate against the references in turn, so the cached
        # table turns over on every call.
        for cand in cands:
            for ref in refs:
                assert _walk(cand, ref) == (lcs_dp(cand, ref), *alignment_counts(cand, ref))
                masks = {token: sum(1 << j for j, t in enumerate(ref) if t == token) for token in ref}
                assert _position_masks(tuple(ref)) == _position_masks.__wrapped__(tuple(ref)) == masks

    @_TABLES
    @given(refs=st.lists(_TOKENS, min_size=1, max_size=3), cands=st.lists(_TOKENS, max_size=6))
    def test_alignment_from_the_shared_table_is_the_stack_alignment(self, refs, cands):
        for cand in cands:
            for ref in refs:
                assert _walk(cand, ref)[1:] == alignment_counts(cand, ref)
                assert _bits([meteor(cand, ref)]) == _bits([meteor_reference(cand, ref)])

    def test_alignment_matches_across_word_boundaries(self):
        rng = np.random.default_rng(47)
        for size in (2, 8, 40, 400):
            for _ in range(15):
                a = ["t%d" % i for i in rng.integers(0, size, rng.integers(60, 301))]
                b = ["t%d" % i for i in rng.integers(0, size, rng.integers(60, 301))]
                assert _walk(a, b)[1:] == alignment_counts(a, b)

    @_TABLES
    @given(
        first=_TOKENS,
        second=_TOKENS,
        edits=st.lists(st.tuples(st.sampled_from(["swap", "set", "append", "pop"]), st.integers(0, 39), st.sampled_from("abcdefg"))),
        cand=_TOKENS,
    )
    def test_no_stale_table_when_references_alternate_or_change_in_place(self, first, second, edits, cand):
        # Two reference lists: the one in use switches, or is changed in
        # place between calls; every call reads the table of the list as
        # it is at that call.
        refs, current = [first, second], 0
        for op, at, token in edits:
            ref = refs[current]
            if op == "swap":
                current = 1 - current
            elif op == "set" and ref:
                ref[at % len(ref)] = token
            elif op == "append":
                ref.append(token)
            elif op == "pop" and ref:
                ref.pop(at % len(ref))
            ref = refs[current]
            assert rouge_l(cand, ref) == rouge_l(cand, list(ref))
            assert _walk(cand, ref) == (lcs_dp(cand, ref), *alignment_counts(cand, ref))
            assert _position_masks(tuple(ref)) == _position_masks.__wrapped__(tuple(ref))

    def test_a_reference_changed_in_place_is_read_again(self):
        cand, ref = list("abcab"), list("abcab")
        assert _walk(cand, ref) == (5, 5, 1)
        ref[0], ref[4] = "x", "y"
        assert _walk(cand, ref) == (lcs_dp(cand, ref), *alignment_counts(cand, ref)) == (3, 3, 2)
        assert stack_alignment(cand, ref) == [(0, 3), (1, 1), (2, 2)]
        ref.clear()
        assert _walk(cand, ref) == (0, 0, 0)
        assert meteor(cand, ref) == 0.0
