import json

import pytest

from hindpo.corpora import toy_corpus
from hindpo.dataforge import (
    ActualityError,
    ArticleRecord,
    Candidate,
    ConstantActuality,
    FileActuality,
    MetricBundle,
    RecordEmbeddedActuality,
    SchemaError,
    articles_sha256,
    attach_actuality,
    bucketize,
    dump_articles,
    dump_pairs,
    emit_curriculum,
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

    def test_duplicate_id(self, tmp_path):
        path = dump_articles([make_record("a"), make_record("a")], tmp_path / "c.jsonl")
        with pytest.raises(SchemaError, match="duplicate"):
            load_articles(path)

    def test_bad_label(self):
        with pytest.raises(SchemaError):
            make_record(label="maybe").validate()

    def test_actuality_range_checked(self):
        with pytest.raises(SchemaError):
            make_record(actuality_preferred=1.5).validate()


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
        pairs = score_and_rank(make_record(), MetricBundle())
        by_rank = sorted(pairs, key=lambda p: p.rank)
        assert by_rank[0].fs >= by_rank[1].fs >= by_rank[2].fs
        assert {p.rank for p in pairs} == {0, 1, 2}

    def test_ties_break_by_model_id(self):
        text = "जांच में यह दावा गलत साबित हुआ"
        record = make_record(
            candidates=[Candidate("m-c", text), Candidate("m-a", text), Candidate("m-b", text)]
        )
        pairs = score_and_rank(record, MetricBundle())
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
        pairs = {p.model_id: p for p in score_and_rank(record, MetricBundle())}
        copy_pair = pairs["m-b"]
        assert copy_pair.rank == 0
        tokens = tokenize(truth)
        meteor_identity = meteor_reference(tokens, tokens)
        expected_fs = (1.0 + (1.0 + meteor_identity) * 3) / 4
        assert copy_pair.fs == pytest.approx(expected_fs, abs=1e-12)

    def test_pair_fields(self):
        pairs = score_and_rank(make_record("art-9"), MetricBundle())
        assert [p.candidate_index for p in pairs] == [0, 1, 2]
        assert all(p.article_id == "art-9" for p in pairs)
        assert all(p.prompt and p.preferred and p.rejected for p in pairs)


class TestActuality:
    def test_constant_stub(self):
        pairs = score_and_rank(make_record(), MetricBundle())
        attach_actuality(pairs, ConstantActuality(0.5))
        assert all(p.s_w == 0.5 and p.s_l == 0.5 for p in pairs)

    def test_constant_rejects_out_of_range(self):
        with pytest.raises(ActualityError):
            ConstantActuality(1.2)

    def test_record_embedded_passthrough(self):
        record = make_record(
            actuality_preferred=0.9, actuality_candidates=[1.0, 0.0, 0.3]
        )
        pairs = score_and_rank(record, MetricBundle())
        attach_actuality(pairs, RecordEmbeddedActuality([record]))
        by_index = {p.candidate_index: p for p in pairs}
        assert [by_index[i].s_l for i in range(3)] == [1.0, 0.0, 0.3]
        assert all(p.s_w == 0.9 for p in pairs)

    def test_record_embedded_missing_scores(self):
        record = make_record()
        pairs = score_and_rank(record, MetricBundle())
        with pytest.raises(ActualityError):
            attach_actuality(pairs, RecordEmbeddedActuality([record]))

    def test_file_lookup(self, tmp_path):
        path = tmp_path / "act.txt"
        path.write_text(
            "art-1 pref 0.75\nart-1 cand0 0.2\nart-1 cand1 0.4\nart-1 cand2 0.6\n",
            encoding="utf-8",
        )
        pairs = score_and_rank(make_record(), MetricBundle())
        attach_actuality(pairs, FileActuality(path))
        assert all(p.s_w == 0.75 for p in pairs)
        by_index = {p.candidate_index: p for p in pairs}
        assert [by_index[i].s_l for i in range(3)] == [0.2, 0.4, 0.6]

    def test_file_lookup_miss(self, tmp_path):
        path = tmp_path / "act.txt"
        path.write_text("art-1 pref 0.75\n", encoding="utf-8")
        pairs = score_and_rank(make_record(), MetricBundle())
        with pytest.raises(ActualityError, match="cand0"):
            attach_actuality(pairs, FileActuality(path))

    def test_file_out_of_range(self, tmp_path):
        path = tmp_path / "act.txt"
        path.write_text("art-1 pref 1.75\n", encoding="utf-8")
        with pytest.raises(ActualityError, match="out of"):
            FileActuality(path)

    def test_file_bad_role(self, tmp_path):
        path = tmp_path / "act.txt"
        path.write_text("art-1 winner 0.5\n", encoding="utf-8")
        with pytest.raises(ActualityError):
            FileActuality(path)

    def test_file_duplicate_line_rejected(self, tmp_path):
        path = tmp_path / "act.txt"
        path.write_text("r1 pref 0.2\nr1 cand0 0.5\nr1 pref 0.9\n", encoding="utf-8")
        with pytest.raises(ActualityError, match=r"act\.txt:3: duplicate pref .*'r1'.*line 1"):
            FileActuality(path)


class TestBucketize:
    def test_rank_to_bucket_mapping(self):
        pairs = score_and_rank(make_record(), MetricBundle())
        dataset = bucketize(pairs)
        stage_names = [name for name, _ in dataset.stages]
        assert stage_names == ["B_L", "B_M", "B_H"]
        by_bucket = dict(dataset.stages)
        assert by_bucket["B_L"][0].rank == 2
        assert by_bucket["B_H"][0].rank == 0
        assert by_bucket["B_H"][0].fs >= by_bucket["B_L"][0].fs

    def test_section4_order(self):
        pairs = score_and_rank(make_record(), MetricBundle())
        dataset = bucketize(pairs, order="section4")
        assert [name for name, _ in dataset.stages] == ["B_H", "B_M", "B_L"]

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            bucketize([], order="random")

    def test_missing_rank_rejected(self):
        pairs = score_and_rank(make_record(), MetricBundle())
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

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split_articles(toy_corpus(), (0.5, 0.5, 0.5))


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

    def test_plain_emit_curriculum(self, tmp_path):
        pairs = score_and_rank(make_record(), MetricBundle())
        attach_actuality(pairs, ConstantActuality(0.5))
        dataset = bucketize(pairs)
        manifest_path = emit_curriculum(dataset, tmp_path)
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


def test_dump_load_pairs_round_trip(tmp_path):
    pairs = score_and_rank(make_record(), MetricBundle())
    attach_actuality(pairs, ConstantActuality(0.25))
    bucketize(pairs)
    path = dump_pairs(pairs, tmp_path / "pairs.jsonl")
    loaded = load_pairs(path)
    assert [p.to_json_dict() for p in loaded] == [p.to_json_dict() for p in pairs]


def _without_prompt(pair: dict) -> str:
    del pair["prompt"]
    return json.dumps(pair)


def _with_extra_key(pair: dict) -> str:
    pair["winner"] = "a"
    return json.dumps(pair)


@pytest.mark.parametrize(
    "bad_line, message",
    [
        (_without_prompt, r"pairs\.jsonl:2: malformed pair: .*prompt"),
        (_with_extra_key, r"pairs\.jsonl:2: malformed pair: .*winner"),
        (lambda pair: "{not json", r"pairs\.jsonl:2: invalid JSON"),
    ],
    ids=["missing-key", "extra-key", "invalid-json"],
)
def test_load_pairs_bad_line_names_file_and_line(tmp_path, bad_line, message):
    good = score_and_rank(make_record(), MetricBundle())[0].to_json_dict()
    path = tmp_path / "pairs.jsonl"
    path.write_text(json.dumps(good) + "\n" + bad_line(dict(good)) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=message):
        load_pairs(path)
