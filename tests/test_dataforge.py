import dataclasses
import json
import re
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hindpo import fileio
from hindpo.cli import main
from hindpo.corpora import toy_corpus
from hindpo.dataforge import (
    BUCKET_BY_RANK,
    DEFAULT_ACTUALITY,
    DEFAULT_SPLIT,
    LABELS,
    ActualityError,
    ArticleRecord,
    Candidate,
    ForgeResult,
    PreferencePair,
    SchemaError,
    articles_sha256,
    bucketize,
    dump_articles,
    dump_pairs,
    embed_actuality,
    emit_forge,
    forge,
    load_articles,
    load_curriculum,
    load_pairs,
    read_manifest,
    score_and_rank,
    split_articles,
)
from hindpo.textmetrics import tokenize

from oracles import meteor_reference


def make_record(record_id="art-1", candidates=None, **overrides):
    fields = {
        "id": record_id,
        "label": "fake",
        "news_text": "सोशल मीडिया पर दावा वायरल है",
        "ground_truth_explanation": "जांच में यह दावा गलत साबित हुआ पुष्टि नहीं हुई",
        "candidates": candidates
        or [
            Candidate("m-a", "जांच में यह दावा गलत साबित हुआ"),
            Candidate("m-b", "जांच में दावा"),
            Candidate("m-c", "आज मौसम सुहाना है बारिश होगी"),
        ],
    }
    fields.update(overrides)
    return ArticleRecord(**fields)


class TestLoadArticles:
    def test_round_trip_two_records(self, tmp_path):
        path = dump_articles([make_record("a"), make_record("b")], tmp_path / "c.jsonl")
        records = load_articles(path)
        assert [r.id for r in records] == ["a", "b"]

    def test_wrong_candidate_count_names_line(self, tmp_path):
        good = make_record("a")
        bad = make_record("b")
        bad.candidates = bad.candidates[:2]
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps(good.to_json_dict(), ensure_ascii=False)
            + "\n"
            + json.dumps(bad.to_json_dict(), ensure_ascii=False)
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match=":2:"):
            load_articles(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=":1:"):
            load_articles(path)

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        good = json.dumps(make_record("a").to_json_dict(), ensure_ascii=False)
        path = tmp_path / "c.jsonl"
        path.write_text("\n" + good + "\n \t\n", encoding="utf-8")
        assert [r.id for r in load_articles(path)] == ["a"]
        path.write_text("\n" + good + "\n \t\n{not json}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=":4: invalid JSON"):
            load_articles(path)

    def test_non_utf8_line_names_file_and_line(self, tmp_path):
        good = json.dumps(make_record("a").to_json_dict(), ensure_ascii=False).encode("utf-8")
        path = tmp_path / "c.jsonl"
        path.write_bytes(good + b"\r\n" + good.replace(b'"a"', b'"\xff"', 1) + b"\n")
        with pytest.raises(SchemaError, match=r"c\.jsonl:2: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 8"):
            load_articles(path)
        # Lines end at "\n", so a CRLF line ending is whitespace after the JSON.
        path.write_bytes(good + b"\r\n" + good.replace(b'"a"', b'"b"', 1) + b"\r\n")
        assert [r.id for r in load_articles(path)] == ["a", "b"]

    def test_duplicate_id(self, tmp_path):
        path = dump_articles([make_record("a"), make_record("a")], tmp_path / "c.jsonl")
        with pytest.raises(SchemaError, match="duplicate"):
            load_articles(path)

    def test_bad_label(self):
        with pytest.raises(SchemaError):
            make_record(label="maybe")

    def test_actuality_range_checked(self):
        with pytest.raises(SchemaError):
            make_record(actuality_preferred=1.5)

    def test_a_line_that_is_not_an_object_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=r":1: malformed record: .*must be a mapping, not list$"):
            load_articles(path)



def _set(key, value):
    return lambda record: record.update({key: value})


def _set_candidate(index, key, value):
    return lambda record: record["candidates"][index].update({key: value})


_BAD_KEYS = [
    pytest.param(
        lambda record: record.update(actuality_prefered=record.pop("actuality_preferred")),
        r"malformed record: .*'actuality_prefered'",
        id="misspelt-key",
    ),
    pytest.param(
        lambda record: record.pop("ground_truth_explanation"),
        r"malformed record: .*'ground_truth_explanation'",
        id="missing-key",
    ),
    pytest.param(_set_candidate(1, "score", 0.5), r"malformed record: .*'score'", id="extra-candidate-key"),
]
_BAD_VALUES = [
    pytest.param(_set("id", 5), r"id must be a string, got 5", id="int-id"),
    pytest.param(_set("id", ""), r"record id must be non-empty", id="empty-id"),
    pytest.param(_set("news_text", 5), r"news_text must be a string, got 5", id="int-news-text"),
    pytest.param(_set("news_text", ""), r"news_text must be non-empty", id="empty-news-text"),
    pytest.param(_set_candidate(2, "text", 5), r"candidates\[2\]\.text must be a string, got 5", id="int-candidate-text"),
    pytest.param(_set_candidate(0, "model_id", 5), r"candidates\[0\]\.model_id must be a string, got 5", id="int-model-id"),
    pytest.param(_set("actuality_preferred", True), r"actuality_preferred must be a number or null, got True", id="bool-score"),
    pytest.param(_set("actuality_candidates", [0.1, "0.2", 0.3]), r"actuality_candidates\[1\] must be a number, got '0\.2'", id="string-score"),
]

_BAD_CANDIDATES = [
    pytest.param(_set("candidates", 5), r"malformed record: candidates must be a list of objects, got 5", id="int-candidates"),
    pytest.param(_set("candidates", None), r"malformed record: candidates must be .*got None", id="null-candidates"),
    pytest.param(_set("candidates", [5, 5, 5]), r"malformed record: candidates must be .*got \[5, 5, 5\]", id="int-candidate-items"),
]


def _record_dicts(edit):
    """Two good corpus lines as dicts, the second then changed by ``edit``."""
    lines = [make_record(r, actuality_preferred=0.9, actuality_candidates=[0.1, 0.5, 0.8]).to_json_dict() for r in "ab"]
    edit(lines[1])
    return lines


def _candidates(data):
    """A corpus line's candidates as code builds them: a list of objects as
    Candidates, any other value as it is."""
    candidates = data["candidates"]
    if isinstance(candidates, list) and all(isinstance(c, dict) for c in candidates):
        return [Candidate(**c) for c in candidates]
    return candidates


def _hand_built(data):
    return ArticleRecord(**{**data, "candidates": _candidates(data)})


# A dict among Candidates, which only code can build.
_MIXED = [Candidate("m-a", "x"), {"model_id": "m-b", "text": "y"}, Candidate("m-c", "z")]
_BUILT_CANDIDATES = _BAD_CANDIDATES + [
    pytest.param(
        _set("candidates", _MIXED),
        re.escape("malformed record: candidates must be a list of objects, got %r" % (_MIXED,)),
        id="dict-among-candidates",
    )
]


@pytest.mark.parametrize("edit, message", _BAD_KEYS + _BAD_VALUES + _BAD_CANDIDATES)
def test_load_articles_rejects_a_bad_key_naming_file_line_and_key(tmp_path, edit, message):
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in _record_dicts(edit)), encoding="utf-8")
    with pytest.raises(SchemaError, match=r"^%s:2: %s" % (re.escape(str(path)), message)):
        load_articles(path)


# A record built in code is refused as its file line is, minus the file and line.
@pytest.mark.parametrize("edit, message", _BAD_VALUES + _BUILT_CANDIDATES)
def test_a_record_built_in_code_is_refused_when_built(edit, message):
    data = _record_dicts(edit)[1]
    with pytest.raises(SchemaError, match="^%s$" % message):
        _hand_built(data)


# replace builds a record, as forge's DEFAULT_ACTUALITY fill and
# embed_actuality do, so it checks one with changed fields, and checks
# again one edited in place.
@pytest.mark.parametrize("edit, message", _BAD_VALUES + _BUILT_CANDIDATES)
def test_replace_refuses_a_bad_record_and_one_edited_in_place(edit, message):
    good, bad = _record_dicts(lambda record: None)[1], _record_dicts(edit)[1]
    changes = {key: value for key, value in bad.items() if value != good[key]}
    if "candidates" in changes:
        changes["candidates"] = _candidates(bad)
    record = _hand_built(good)
    with pytest.raises(SchemaError, match="^%s$" % message):
        dataclasses.replace(record, **changes)
    vars(record).update(changes)
    with pytest.raises(SchemaError, match="^%s$" % message):
        dataclasses.replace(record)


def test_forge_of_a_loaded_corpus_checks_each_record_once(tmp_path, monkeypatch):
    checked = []

    def check_kinds(part, *args):
        if isinstance(part, ArticleRecord):
            checked.append(part.id)
        return fileio.check_kinds(part, *args)

    path = dump_articles(toy_corpus(), tmp_path / "c.jsonl")
    monkeypatch.setattr("hindpo.dataforge.check_kinds", check_kinds)
    forge(load_articles(path))
    assert sorted(checked) == sorted(record.id for record in toy_corpus())


class TestToyCorpus:
    def test_sixty_balanced_records(self):
        records = toy_corpus()
        assert len(records) == 60
        assert sum(r.label == "fake" for r in records) == 30
        assert sum(r.label == "real" for r in records) == 30
        assert len({r.id for r in records}) == 60

    def test_embedded_actuality_present(self):
        for record in toy_corpus():
            assert record.actuality_preferred is not None
            assert len(record.actuality_candidates) == 3

    def test_byte_identical_round_trip(self, tmp_path):
        first = dump_articles(toy_corpus(), tmp_path / "one.jsonl")
        second = dump_articles(load_articles(first), tmp_path / "two.jsonl")
        assert first.read_bytes() == second.read_bytes()

    def test_generation_is_deterministic(self):
        assert articles_sha256(toy_corpus()) == articles_sha256(toy_corpus())


class TestScoreAndRank:
    def test_rank_order_by_score(self):
        pairs = score_and_rank(make_record())
        by_rank = sorted(pairs, key=lambda p: p.rank)
        assert by_rank[0].fs >= by_rank[1].fs >= by_rank[2].fs
        assert {p.rank for p in pairs} == {0, 1, 2}

    def test_ties_break_by_model_id(self):
        text = "जांच में यह दावा गलत साबित हुआ"
        record = make_record(
            candidates=[Candidate("m-c", text), Candidate("m-a", text), Candidate("m-b", text)]
        )
        pairs = score_and_rank(record)
        rank_by_model = {p.model_id: p.rank for p in pairs}
        assert rank_by_model == {"m-a": 0, "m-b": 1, "m-c": 2}

    def test_ground_truth_copy_gets_rank_zero(self):
        truth = "जांच में यह दावा गलत साबित हुआ पुष्टि नहीं हुई"
        record = make_record(
            candidates=[
                Candidate("m-a", "जांच में दावा"),
                Candidate("m-b", truth),
                Candidate("m-c", "आज मौसम सुहाना है"),
            ]
        )
        pairs = {p.model_id: p for p in score_and_rank(record)}
        copy_pair = pairs["m-b"]
        assert copy_pair.rank == 0
        tokens = tokenize(truth)
        meteor_identity = meteor_reference(tokens, tokens)
        expected_fs = (1.0 + (1.0 + meteor_identity) * 3) / 4
        assert copy_pair.fs == pytest.approx(expected_fs, abs=1e-12)

    def test_pair_fields(self):
        pairs = score_and_rank(make_record("art-9"))
        assert [p.candidate_index for p in pairs] == [0, 1, 2]
        assert all(p.article_id == "art-9" for p in pairs)
        assert all(p.prompt and p.preferred and p.rejected for p in pairs)


SCORED = {"actuality_preferred": 0.9, "actuality_candidates": [1.0, 0.0, 0.3]}


def write_actuality(tmp_path, text):
    path = tmp_path / "act.txt"
    path.write_text(text, encoding="utf-8")
    return path


class TestActuality:
    def test_record_embedded_passthrough(self):
        pairs = score_and_rank(make_record(**SCORED))
        by_index = {p.candidate_index: p for p in pairs}
        assert [by_index[i].s_l for i in range(3)] == [1.0, 0.0, 0.3]
        assert all(p.s_w == 0.9 for p in pairs)

    def test_record_embedded_missing_scores(self):
        pairs = score_and_rank(make_record())
        assert all(p.s_w is None and p.s_l is None for p in pairs)

    def test_integer_scores_written_as_floats(self):
        pairs = score_and_rank(make_record(actuality_preferred=1, actuality_candidates=[0, 1, 0.5]))
        assert [json.dumps([p.s_w, p.s_l]) for p in pairs] == ["[1.0, 0.0]", "[1.0, 1.0]", "[1.0, 0.5]"]

    def test_constant_stub(self):
        # One record without scores puts the whole corpus on the stub,
        # the scored records included.
        records = [make_record(r, **SCORED) for r in "abc"] + [make_record("d")]
        result = forge(records, split=(0.5, 0.25, 0.25), seed=0)
        pairs = result.curriculum.all_pairs() + result.val_pairs + result.test_pairs
        assert len(pairs) == 12
        assert all(p.s_w == p.s_l == DEFAULT_ACTUALITY == 0.5 for p in pairs)
        assert result.corpus_sha256 == articles_sha256(records)

    def test_file_lookup(self, tmp_path):
        path = write_actuality(
            tmp_path, "art-1 pref 0.75\nart-1 cand0 0.2\n\nart-1 cand1 0.4\nart-1 cand2 0.6\n"
        )
        record = make_record(**SCORED)
        [embedded] = embed_actuality([record], path)
        assert (embedded.actuality_preferred, embedded.actuality_candidates) == (0.75, [0.2, 0.4, 0.6])
        assert (record.actuality_preferred, record.actuality_candidates) == (0.9, [1.0, 0.0, 0.3])
        pairs = score_and_rank(embedded)
        assert all(p.s_w == 0.75 for p in pairs)
        by_index = {p.candidate_index: p for p in pairs}
        assert [by_index[i].s_l for i in range(3)] == [0.2, 0.4, 0.6]

    def test_file_lookup_miss(self, tmp_path):
        path = write_actuality(tmp_path, "art-1 pref 0.75\n")
        with pytest.raises(ActualityError, match=r"act\.txt: no cand0 score for record 'art-1'"):
            embed_actuality([make_record()], path)

    def test_file_out_of_range(self, tmp_path):
        path = write_actuality(tmp_path, "art-1 pref 1.75\n")
        with pytest.raises(ActualityError, match=r"act\.txt:1: score must be <= 1, got 1\.75$"):
            embed_actuality([make_record()], path)

    def test_file_bad_role(self, tmp_path):
        path = write_actuality(tmp_path, "art-1 cand0 0.5\nart-1 winner 0.5\n")
        with pytest.raises(ActualityError, match=r"act\.txt:2: expected '<record_id> <pref\|cand0"):
            embed_actuality([make_record()], path)

    @pytest.mark.parametrize("line", ["art-1 pref", "art-1 pref 0.5 extra"], ids=["two-fields", "four-fields"])
    def test_file_wrong_field_count(self, tmp_path, line):
        path = write_actuality(tmp_path, line + "\n")
        with pytest.raises(ActualityError, match=r"act\.txt:1: expected"):
            embed_actuality([make_record()], path)

    def test_file_bad_score(self, tmp_path):
        path = write_actuality(tmp_path, "art-1 pref x\n")
        with pytest.raises(ActualityError, match=r"act\.txt:1: bad score 'x'"):
            embed_actuality([make_record()], path)

    def test_file_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "act.txt"
        path.write_bytes(b"art-1 pref 0.5\nart-1 cand0 0.\xff\n")
        with pytest.raises(ActualityError, match=r"act\.txt:2: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 14"):
            embed_actuality([make_record()], path)

    def test_file_duplicate_line_rejected(self, tmp_path):
        path = write_actuality(tmp_path, "r1 pref 0.2\nr1 cand0 0.5\nr1 pref 0.9\n")
        with pytest.raises(ActualityError, match=r"act\.txt:3: duplicate pref .*'r1'.*line 1"):
            embed_actuality([make_record("r1")], path)


class TestBucketize:
    def test_rank_to_bucket_mapping(self):
        pairs = score_and_rank(make_record())
        dataset = bucketize(pairs)
        stage_names = [name for name, _ in dataset.stages]
        assert stage_names == ["B_L", "B_M", "B_H"]
        by_bucket = dict(dataset.stages)
        assert by_bucket["B_L"][0].rank == 2
        assert by_bucket["B_H"][0].rank == 0
        assert by_bucket["B_H"][0].fs >= by_bucket["B_L"][0].fs

    def test_section4_order(self):
        pairs = score_and_rank(make_record())
        dataset = bucketize(pairs, order="section4")
        assert [name for name, _ in dataset.stages] == ["B_H", "B_M", "B_L"]

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            bucketize([], order="random")

    def test_missing_rank_rejected(self):
        pairs = score_and_rank(make_record())
        with pytest.raises(ValueError, match="ranks"):
            bucketize(pairs[:2])


class TestSplit:
    def test_article_level_no_leak(self):
        articles = toy_corpus()
        train, val, test = split_articles(articles, (0.75, 0.05, 0.20), seed=7)
        assert (len(train), len(val), len(test)) == (45, 3, 12)
        ids = [r.id for part in (train, val, test) for r in part]
        assert sorted(ids) == sorted(r.id for r in articles)

    def test_deterministic(self):
        articles = toy_corpus()
        first = split_articles(articles, seed=3)
        second = split_articles(articles, seed=3)
        assert [[r.id for r in part] for part in first] == [
            [r.id for r in part] for part in second
        ]

    @pytest.mark.parametrize("call", [split_articles, forge], ids=["split_articles", "forge"])
    def test_repeated_article_id_rejected(self, call):
        # Split by record, the two art-001 records could land in two splits.
        articles = toy_corpus() + [dataclasses.replace(toy_corpus()[0], news_text="x y")]
        with pytest.raises(ValueError, match=r"^duplicate article id 'art-001'$"):
            call(articles, seed=0)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split_articles(toy_corpus(), (0.5, 0.5, 0.5))

    @pytest.mark.parametrize("split", [(float("nan"), 0, 0), ("a", 0, 0), (True, 0, 0)], ids=["nan", "str", "bool"])
    @pytest.mark.parametrize("call", [split_articles, lambda records, split: forge(records, split=split)], ids=["split_articles", "forge"])
    def test_fraction_of_the_wrong_kind_rejected(self, call, split):
        message = "split fractions must be three non-negative values, got %r" % (split,)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            call(toy_corpus(), split)

    @pytest.mark.parametrize(
        "seed, message",
        [("x", "must be an integer, got 'x'"), (-1, "must be >= 0, got -1"), (True, "must be an integer, got True"), (2.0, "must be an integer, got 2.0")],
        ids=["str", "negative", "bool", "float"],
    )
    @pytest.mark.parametrize("call", [split_articles, lambda records, seed: forge(records, seed=seed)], ids=["split_articles", "forge"])
    def test_bad_seed_rejected_by_name(self, call, seed, message):
        with pytest.raises(ValueError, match="^seed %s$" % re.escape(message)):
            call(toy_corpus(), seed=seed)


class TestEmit:
    def test_stage_files_and_manifest(self, tmp_path):
        result = forge(toy_corpus(), seed=7)
        manifest_path = emit_forge(result, tmp_path)
        manifest = read_manifest(tmp_path)
        assert [e["bucket"] for e in manifest["stages"]] == ["B_L", "B_M", "B_H"]
        assert manifest["split"] == {"train": 0.75, "val": 0.05, "test": 0.2}
        for entry in manifest["stages"]:
            assert (tmp_path / entry["file"]).exists()
            assert entry["pairs"] == 45
        assert manifest_path.name == "manifest.json"

    def test_partition_conservation(self, tmp_path):
        result = forge(toy_corpus(), seed=7)
        emit_forge(result, tmp_path)
        manifest = read_manifest(tmp_path)
        stage_ids = []
        for entry in manifest["stages"]:
            stage_ids.extend(p.id for p in load_pairs(tmp_path / entry["file"]))
        expected = [p.id for p in result.curriculum.all_pairs()]
        assert sorted(stage_ids) == sorted(expected)
        assert len(stage_ids) == len(set(stage_ids))

    def test_double_emit_byte_identical(self, tmp_path):
        result = forge(toy_corpus(), seed=7)
        emit_forge(result, tmp_path / "one")
        emit_forge(result, tmp_path / "two")
        for name in sorted(p.name for p in (tmp_path / "one").iterdir()):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_pipeline_deterministic_end_to_end(self, tmp_path):
        a = forge(toy_corpus(), seed=11)
        b = forge(toy_corpus(), seed=11)
        emit_forge(a, tmp_path / "a")
        emit_forge(b, tmp_path / "b")
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "manifest.json"
        ).read_bytes()

    def test_load_curriculum_round_trip(self, tmp_path):
        result = forge(toy_corpus(), seed=7)
        emit_forge(result, tmp_path)
        loaded = load_curriculum(tmp_path)
        assert loaded.order == result.curriculum.order
        assert [name for name, _ in loaded.stages] == [
            name for name, _ in result.curriculum.stages
        ]
        assert [p.id for _, pairs in loaded.stages for p in pairs] == [
            p.id for _, pairs in result.curriculum.stages for p in pairs
        ]

    def test_load_curriculum_rejects_truncated_stage(self, tmp_path):
        emit_forge(forge(toy_corpus(), seed=7), tmp_path)
        stage = tmp_path / "stage_0_B_L.jsonl"
        lines = stage.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 45
        stage.write_text("".join(lines[:10]), encoding="utf-8")
        with pytest.raises(SchemaError, match=r"stage_0_B_L\.jsonl: holds 10 pairs, the manifest lists 45"):
            load_curriculum(tmp_path)

    def test_load_curriculum_rejects_edited_stage(self, tmp_path):
        emit_forge(forge(toy_corpus(), seed=7), tmp_path)
        stage = tmp_path / "stage_2_B_H.jsonl"
        pair = json.loads(stage.read_text(encoding="utf-8").splitlines()[0])
        edited = stage.read_text(encoding="utf-8").replace(
            json.dumps(pair, ensure_ascii=False), json.dumps({**pair, "s_w": 1.0}, ensure_ascii=False), 1
        )
        assert edited != stage.read_text(encoding="utf-8")
        stage.write_text(edited, encoding="utf-8")
        with pytest.raises(SchemaError, match=r"stage_2_B_H\.jsonl: sha256 differs from the manifest's"):
            load_curriculum(tmp_path)

    def test_plain_emit_curriculum(self, tmp_path):
        pairs = score_and_rank(make_record(actuality_preferred=0.5, actuality_candidates=[0.5] * 3))
        result = ForgeResult(
            curriculum=bucketize(pairs),
            val_pairs=[],
            test_pairs=[],
            split=DEFAULT_SPLIT,
            seed=0,
            corpus_sha256=articles_sha256([make_record()]),
            n_articles=1,
        )
        manifest_path = emit_forge(result, tmp_path)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert len(manifest["stages"]) == 3
        assert manifest["split"] == {"train": 0.75, "val": 0.05, "test": 0.2}


class TestForge:
    def test_rank_ordering_invariant(self):
        result = forge(toy_corpus(), seed=7)
        by_article = {}
        for pair in result.curriculum.all_pairs():
            by_article.setdefault(pair.article_id, []).append(pair)
        for pairs in by_article.values():
            ordered = sorted(pairs, key=lambda p: p.rank)
            assert ordered[0].fs >= ordered[1].fs >= ordered[2].fs

    def test_uses_embedded_actuality(self):
        result = forge(toy_corpus(), seed=7)
        records = {r.id: r for r in toy_corpus()}
        for pair in result.curriculum.all_pairs():
            record = records[pair.article_id]
            assert pair.s_w == record.actuality_preferred
            assert pair.s_l == record.actuality_candidates[pair.candidate_index]

    def test_falls_back_to_constant_stub(self):
        records = [make_record("a"), make_record("b"), make_record("c"), make_record("d")]
        result = forge(records, split=(0.5, 0.25, 0.25), seed=0)
        assert all(p.s_w == 0.5 and p.s_l == 0.5 for p in result.curriculum.all_pairs())

    def test_default_actuality_is_set_on_the_pairs_and_no_record_is_checked(self, tmp_path, monkeypatch):
        # Every other record lacks actuality, so every pair takes the
        # default: the pairs carry it, and no record is rebuilt to hold it.
        stripped = [
            dataclasses.replace(r, actuality_preferred=None, actuality_candidates=None) if i % 2 else r
            for i, r in enumerate(toy_corpus())
        ]
        filled = [
            dataclasses.replace(r, actuality_preferred=DEFAULT_ACTUALITY, actuality_candidates=[DEFAULT_ACTUALITY] * 3)
            for r in stripped
        ]
        checked = []
        monkeypatch.setattr("hindpo.dataforge.check_kinds", lambda *args: checked.append(args))
        result = forge(stripped, seed=7)
        monkeypatch.undo()
        assert checked == []
        assert all(p.s_w == p.s_l == DEFAULT_ACTUALITY for p in result.curriculum.all_pairs() + result.val_pairs + result.test_pairs)
        emit_forge(result, tmp_path / "stripped")
        emit_forge(forge(filled, seed=7), tmp_path / "filled")
        names = [entry["file"] for entry in read_manifest(tmp_path / "filled")["stages"]] + ["val.jsonl", "test.jsonl"]
        for name in names:
            assert (tmp_path / "stripped" / name).read_bytes() == (tmp_path / "filled" / name).read_bytes(), name


def test_dump_load_pairs_round_trip(tmp_path):
    pairs = score_and_rank(make_record(actuality_preferred=0.25, actuality_candidates=[0.25] * 3))
    bucketize(pairs)
    path = dump_pairs(pairs, tmp_path / "pairs.jsonl")
    loaded = load_pairs(path)
    assert [p.to_json_dict() for p in loaded] == [p.to_json_dict() for p in pairs]


def test_load_pairs_skips_blank_lines_but_counts_them(tmp_path):
    good = score_and_rank(make_record())[0].to_json_dict()
    path = tmp_path / "pairs.jsonl"
    path.write_text("\n" + json.dumps(good) + "\n  \n", encoding="utf-8")
    assert [p.to_json_dict() for p in load_pairs(path)] == [good]
    path.write_text("\n" + json.dumps(good) + "\n  \n{not json\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"pairs\.jsonl:4: invalid JSON"):
        load_pairs(path)


def test_load_pairs_names_a_non_utf8_line(tmp_path):
    good = json.dumps(score_and_rank(make_record())[0].to_json_dict()).encode("utf-8")
    path = tmp_path / "pairs.jsonl"
    path.write_bytes(good + b"\n\n" + good[:-1] + b'\xff}\n')
    with pytest.raises(SchemaError, match=r"pairs\.jsonl:3: not UTF-8: 'utf-8' codec can't decode byte 0xff in position %d" % (len(good) - 1)):
        load_pairs(path)


def _without_prompt(pair: dict) -> str:
    del pair["prompt"]
    return json.dumps(pair)


def _with_extra_key(pair: dict) -> str:
    pair["winner"] = "a"
    return json.dumps(pair)


def _with(key: str, value: object):
    return lambda pair: json.dumps({**pair, key: value})


# (key, value, message) of a pair line whose value has the wrong type or range.
_WRONG_VALUES = [
    ("s_w", "x", "s_w must be a number or null, got 'x'"),
    ("s_w", 7.0, "s_w must be <= 1, got 7.0"),
    ("s_l", -3.0, "s_l must be >= 0, got -3.0"),
    ("s_w", True, "s_w must be a number or null, got True"),
    ("s_l", float("nan"), "s_l must be finite, got nan"),
    ("prompt", 5, "prompt must be a string, got 5"),
    ("rejected", None, "rejected must be a string, got None"),
    ("id", ["p"], "id must be a string, got ['p']"),
    ("candidate_index", True, "candidate_index must be an integer, got True"),
    ("candidate_index", 1.0, "candidate_index must be an integer, got 1.0"),
    ("rank", "2", "rank must be an integer, got '2'"),
    ("fs", float("inf"), "fs must be finite, got inf"),
    ("fs", float("nan"), "fs must be finite, got nan"),
    ("fs", False, "fs must be a number, got False"),
    ("fs", "0.5", "fs must be a number, got '0.5'"),
    ("bucket", 3, "bucket must be a string or null, got 3"),
]


@pytest.mark.parametrize(
    "bad_line, message",
    [
        (_without_prompt, r"pairs\.jsonl:2: malformed pair: .*prompt"),
        (_with_extra_key, r"pairs\.jsonl:2: malformed pair: .*winner"),
        (lambda pair: "{not json", r"pairs\.jsonl:2: invalid JSON"),
        *((_with(key, value), r"pairs\.jsonl:2: %s$" % re.escape(message)) for key, value, message in _WRONG_VALUES),
    ],
    ids=["missing-key", "extra-key", "invalid-json", *("%s=%r" % (key, value) for key, value, _ in _WRONG_VALUES)],
)
def test_load_pairs_bad_line_names_file_and_line(tmp_path, bad_line, message):
    good = score_and_rank(make_record())[0].to_json_dict()
    path = tmp_path / "pairs.jsonl"
    path.write_text(json.dumps(good) + "\n" + bad_line(dict(good)) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=message):
        load_pairs(path)


_SCORES = st.none() | st.integers(0, 1) | st.floats(0.0, 1.0)
_ARTICLES = st.builds(
    ArticleRecord,
    id=st.text(min_size=1),
    label=st.sampled_from(LABELS),
    news_text=st.text(min_size=1),
    ground_truth_explanation=st.text(),
    candidates=st.lists(st.builds(Candidate, model_id=st.text(), text=st.text()), min_size=3, max_size=3),
    actuality_preferred=_SCORES,
    actuality_candidates=st.none() | st.lists(_SCORES.filter(lambda s: s is not None), min_size=3, max_size=3),
)
_PAIRS = st.builds(
    PreferencePair,
    id=st.text(),
    article_id=st.text(),
    candidate_index=st.integers(0, 2),
    model_id=st.text(),
    prompt=st.text(),
    preferred=st.text(),
    rejected=st.text(),
    s_w=_SCORES,
    s_l=_SCORES,
    fs=st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    rank=st.integers(0, 2),
    bucket=st.none() | st.sampled_from(sorted(BUCKET_BY_RANK.values())),
)


@settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(_ARTICLES, min_size=1, max_size=3, unique_by=lambda r: r.id))
def test_article_dump_load_round_trip(tmp_path, records):
    first = dump_articles(records, tmp_path / "one.jsonl")
    loaded = load_articles(first)
    assert loaded == records
    assert dump_articles(loaded, tmp_path / "two.jsonl").read_bytes() == first.read_bytes()


@settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=st.lists(_PAIRS, max_size=3))
def test_pair_dump_load_round_trip(tmp_path, pairs):
    first = dump_pairs(pairs, tmp_path / "one.jsonl")
    loaded = load_pairs(first)
    assert loaded == pairs
    assert dump_pairs(loaded, tmp_path / "two.jsonl").read_bytes() == first.read_bytes()


class _Rank(int):
    """An int subclass; the pair template leaves it to json.dumps."""


# Text with non-ASCII characters, quotes, backslashes, control characters
# and the line separators JSON leaves unescaped.
_ESCAPES = st.text() | st.text(alphabet='aé"\\/\x00\x01\x1f\x7f\t\n\r\u2028\u2029बक\U0001f600')
# Values the template cannot write exactly, so json.dumps writes them.
_FALLBACK_VALUES = [float("nan"), float("inf"), float("-inf"), True, False, np.float64(0.25), _Rank(1)]
_PAIR_FIELDS = [f.name for f in dataclasses.fields(PreferencePair)]


@st.composite
def _any_pairs(draw):
    # A pair built without validate, its texts drawn to need escaping,
    # and maybe one field set to a value the template leaves to json.dumps.
    pair = PreferencePair(
        **{name: draw(_ESCAPES) for name in ("id", "article_id", "model_id", "prompt", "preferred", "rejected")},
        candidate_index=draw(st.integers()),
        s_w=draw(_SCORES),
        s_l=draw(_SCORES),
        fs=draw(st.integers() | st.floats()),
        rank=draw(st.integers()),
        bucket=draw(st.none() | _ESCAPES),
    )
    if draw(st.booleans()):
        setattr(pair, draw(st.sampled_from(_PAIR_FIELDS)), draw(st.sampled_from(_FALLBACK_VALUES)))
    return pair


def _oracle_lines(pairs) -> bytes:
    return "".join(json.dumps(p.to_json_dict(), ensure_ascii=False) + "\n" for p in pairs).encode("utf-8")


_PLAIN_PAIR = dict(
    id='é"\\\x01\u2028', article_id="a", candidate_index=0, model_id="m", prompt="p", preferred="w", rejected="l",
    fs=0.5, rank=0,
)


@settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=st.lists(_any_pairs(), max_size=4))
@example(pairs=[PreferencePair(**_PLAIN_PAIR), PreferencePair(**{**_PLAIN_PAIR, "s_w": 0.25, "s_l": 1.0, "bucket": "B_H"})])
@example(pairs=[PreferencePair(**{**_PLAIN_PAIR, "fs": value}) for value in _FALLBACK_VALUES])
@example(pairs=[PreferencePair(**{**_PLAIN_PAIR, "s_w": np.float64(0.5), "rank": _Rank(2), "candidate_index": True})])
def test_each_pair_line_is_one_json_dumps(tmp_path, pairs):
    assert dump_pairs(pairs, tmp_path / "pairs.jsonl").read_bytes() == _oracle_lines(pairs)


def test_plain_pairs_never_call_json_dumps(tmp_path, monkeypatch):
    # Pairs of the field types go through the line template alone; a NaN fs
    # goes through json.dumps, once.
    pairs = forge(toy_corpus()).curriculum.all_pairs()
    odd = PreferencePair(**{**_PLAIN_PAIR, "fs": float("nan")})
    dumped = []

    def dumps(obj, **kwargs):
        dumped.append(obj)
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(fileio, "json", types.SimpleNamespace(dumps=dumps))
    path = dump_pairs(pairs + [odd], tmp_path / "pairs.jsonl")
    monkeypatch.undo()
    assert path.read_bytes() == _oracle_lines(pairs + [odd])
    assert dumped == [odd.to_json_dict()]
