import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields

import pytest

import faults
import hindpo
from hindpo import cli, evalharness, textmetrics, trainer
from hindpo.cli import RunConfig, main
from hindpo.dataforge import SchemaError, read_manifest
from hindpo.fileio import KINDS
from hindpo.losses import MODES, LossConfig
from hindpo.trainer import TrainConfig


def write_config(tmp_path, **overrides):
    config = {
        "out_dir": str(tmp_path / "out"),
        "seed": 3,
        "train": {"epochs_per_stage": 2},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def edit_manifest(change):
    """A manifest text edit: ``change`` applied to the parsed manifest."""

    def edit(text):
        manifest = json.loads(text)
        change(manifest)
        return json.dumps(manifest)

    return edit


def mode_files(out):
    """The trained checkpoints and train logs in ``out``."""
    names = [name % mode for mode in MODES for name in ("policy_%s.json", "trainlog_%s.jsonl")]
    return [name for name in names if (out / name).exists()]


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestForge:
    def test_default_order_is_algorithm1(self, tmp_path):
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--seed", "3", "--order", "algorithm1"]) == 0
        manifest = read_manifest(out)
        assert [e["bucket"] for e in manifest["stages"]] == ["B_L", "B_M", "B_H"]
        assert (out / "toy_articles.jsonl").exists()

    def test_section4_order(self, tmp_path):
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--order", "section4"]) == 0
        manifest = read_manifest(out)
        assert [e["bucket"] for e in manifest["stages"]] == ["B_H", "B_M", "B_L"]

    def test_custom_corpus(self, tmp_path):
        from hindpo.corpora import toy_corpus
        from hindpo.dataforge import dump_articles

        corpus = dump_articles(toy_corpus()[:8], tmp_path / "corpus.jsonl")
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--corpus", str(corpus), "--seed", "1"]) == 0
        assert read_manifest(out)["articles"] == 8

    def test_idempotent_on_unchanged_inputs(self, tmp_path):
        out = tmp_path / "out"
        main(["forge", "--out", str(out), "--seed", "3"])
        first = tree_bytes(out)
        main(["forge", "--out", str(out), "--seed", "3"])
        assert tree_bytes(out) == first

    def test_seed_7_manifest_bytes_are_pinned(self, tmp_path):
        # The manifest holds the sha256 of every stage, val and test file
        # and of the corpus, so this pins every forged byte.
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--seed", "7"]) == 0
        digest = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
        assert digest == "c809283bc4f11cb34acc329b88d18887b7c46242b405cd8dc9ba15fc5b898d21"

    def test_reforge_drops_the_checkpoints_of_the_earlier_forge(self, tmp_path):
        from hindpo.corpora import toy_corpus
        from hindpo.dataforge import dump_articles

        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["forge", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--mode", "dpo"]) == 0
        records = toy_corpus()[:8]
        for record in records:
            record.ground_truth_explanation += " नवीनतम"
        corpus = dump_articles(records, tmp_path / "corpus.jsonl")
        assert main(["forge", "--config", str(config), "--corpus", str(corpus)]) == 0
        assert not list(out.glob("policy_*.json"))
        assert main(["train", "--config", str(config), "--mode", "hin_dpo"]) == 0
        assert "नवीनतम" in json.loads((out / "policy_base.json").read_text(encoding="utf-8"))["vocab"]
        assert main(["eval", "--config", str(config)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [row["config"] for row in report] == ["base", "hin_dpo"]

    def test_reforge_drops_the_tables_of_the_earlier_forge(self, tmp_path):
        from hindpo.corpora import toy_corpus
        from hindpo.dataforge import dump_articles

        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["forge", "--config", str(config)]) == 0
        assert main(["demo", "--config", str(config)]) == 0
        records = toy_corpus()[:8]
        for record in records:
            record.ground_truth_explanation += " नवीनतम"
        corpus = dump_articles(records, tmp_path / "corpus.jsonl")
        assert main(["forge", "--config", str(config), "--corpus", str(corpus)]) == 0
        assert not list(out.glob("policy_*"))
        assert main(["train", "--config", str(config), "--mode", "dpo"]) == 0
        assert sorted(p.name for p in out.glob("policy_*")) == [
            "policy_base.json", "policy_base.json.logits", "policy_dpo.json", "policy_dpo.json.logits",
        ]

    def test_a_base_header_without_its_table_is_refused_naming_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--seed", "7"]) == 0
        assert main(["eval", "--out", str(out), "--seed", "7"]) == 0
        base = out / "policy_base.json"
        (out / "policy_base.json.logits").unlink()
        config = RunConfig(out_dir=str(out), seed=7)
        with pytest.raises(ValueError, match="^%s: cannot read the logit table: " % re.escape(str(base))):
            cli._base_policy(config, out)
        capsys.readouterr()
        assert main(["eval", "--out", str(out), "--seed", "7"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: %s: cannot read the logit table: [Errno 2] No such file or directory" % base), err

    def test_reforge_leaves_only_what_a_fresh_forge_writes(self, tmp_path):
        from hindpo.corpora import toy_corpus
        from hindpo.dataforge import dump_articles

        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["forge", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--mode", "dpo"]) == 0
        assert main(["eval", "--config", str(config)]) == 0
        assert {"trainlog_dpo.jsonl", "report.txt", "report.json", "toy_articles.jsonl"} <= {
            p.name for p in out.iterdir()
        }
        corpus = dump_articles(toy_corpus()[:8], tmp_path / "corpus.jsonl")
        forge = ["forge", "--config", str(config), "--corpus", str(corpus), "--order", "section4"]
        assert main(forge) == 0
        assert main([*forge, "--out", str(tmp_path / "fresh")]) == 0
        assert tree_bytes(out) == tree_bytes(tmp_path / "fresh")

    def test_reforge_keeps_the_toy_copy_it_reads_as_its_corpus(self, tmp_path):
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out)]) == 0
        before = tree_bytes(out)
        assert main(["forge", "--out", str(out), "--corpus", str(out / "toy_articles.jsonl")]) == 0
        assert tree_bytes(out) == before

    def test_missing_corpus_is_clean_error(self, tmp_path, capsys):
        code = main(["forge", "--out", str(tmp_path / "out"), "--corpus", "missing.jsonl"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_misspelt_corpus_key_fails_before_forging(self, tmp_path, capsys):
        # One misspelt actuality key used to load cleanly and put every
        # pair of the corpus at s_w = s_l = 0.5.
        from hindpo.corpora import toy_corpus

        records = [record.to_json_dict() for record in toy_corpus()[:6]]
        records[3]["actuality_prefered"] = records[3].pop("actuality_preferred")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--corpus", str(corpus)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: %s:4: malformed record: .*'actuality_prefered'\n" % re.escape(str(corpus)), err
        ), err
        assert not out.exists()

    def test_traceback_flag_raises_the_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing.jsonl"):
            main(["forge", "--out", str(tmp_path / "out"), "--corpus", "missing.jsonl", "--traceback"])


@pytest.fixture(scope="module")
def seed_7_demo(tmp_path_factory):
    """The output directory of `hindpo demo --seed 7`; copy it before writing."""
    out = tmp_path_factory.mktemp("seed_7_demo") / "out"
    assert main(["demo", "--out", str(out), "--seed", "7"]) == 0
    return out


class TestTrainEval:
    def test_train_then_eval(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["forge", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--mode", "dpo"]) == 0
        out = tmp_path / "out"
        assert (out / "policy_base.json").exists()
        assert (out / "policy_dpo.json").exists()
        assert (out / "trainlog_dpo.jsonl").exists()
        assert main(["eval", "--config", str(config)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [entry["config"] for entry in report] == ["base", "dpo"]
        assert (out / "report.txt").exists()

    def test_eval_skips_a_mode_without_a_checkpoint_before_its_one_scoring_call(self, seed_7_demo, tmp_path, monkeypatch):
        # dpo_fin's checkpoint is gone: the other four configs are scored
        # in one evaluate_configs call, each row equal to the full demo's.
        out = shutil.copytree(seed_7_demo, tmp_path / "out")
        (out / "policy_dpo_fin.json").unlink()
        (out / "policy_dpo_fin.json.logits").unlink()
        calls = []
        evaluate_configs = evalharness.evaluate_configs

        def recording(outputs, references, semantic=None):
            calls.append(list(outputs))
            return evaluate_configs(outputs, references, semantic)

        monkeypatch.setattr(evalharness, "evaluate_configs", recording)
        assert main(["eval", "--out", str(out), "--seed", "7"]) == 0
        assert calls == [["base", "dpo", "dpo_act", "hin_dpo"]]
        full = {row["config"]: row for row in json.loads((seed_7_demo / "report.json").read_text(encoding="utf-8"))}
        subset = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert subset == [full[name] for name in ("base", "dpo", "dpo_act", "hin_dpo")]

    def test_seed_7_eval_tokenizes_each_text_once_per_call(self, seed_7_demo, tmp_path, monkeypatch):
        # Five generate calls tokenize the 10 distinct prompts once each
        # (50), scoring tokenizes its 17 distinct texts once (17), and the
        # scorer takes one call per reference (12).
        out = shutil.copytree(seed_7_demo, tmp_path / "out")
        counts = {"tokenize": 0, "char_trigram_cosine": 0}
        for module, name in ((evalharness, "tokenize"), (textmetrics, "char_trigram_cosine")):
            def counting(*args, original=getattr(module, name), name=name):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counting)
        assert main(["eval", "--out", str(out), "--seed", "7"]) == 0
        assert counts["tokenize"] <= 67
        assert counts["char_trigram_cosine"] == 12
        assert tree_bytes(out) == tree_bytes(seed_7_demo)

    def test_train_overflow_is_one_clean_error(self, tmp_path, capsys):
        # beta = 1e300 keeps every gradient entry finite but overflows
        # their squared sum: the step fails before it is applied, with no
        # numpy warning ahead of the error line.
        config = write_config(tmp_path, loss={"beta": 1e300})
        assert main(["forge", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: non-finite [a-z ]+ at stage '\w+' epoch \d+ step \d+\n", err), err
        assert not (tmp_path / "out" / "policy_hin_dpo.json").exists()

    def test_beta_overflowing_the_pair_weights_is_one_clean_error(self, tmp_path, capsys):
        # beta = 1e308 overflows beta * mult (mult reaches scale_cap) when
        # the stage's weights are computed: the first step's gradient is
        # non-finite and the trainer's own check reports it, with no numpy
        # warning raised or printed on the way.
        config = write_config(tmp_path, loss={"beta": 1e308})
        assert main(["forge", "--config", str(config)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(config)]) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: non-finite gradient at stage '\w+' epoch 1 step 1\n", err), err
        assert not (tmp_path / "out" / "policy_hin_dpo.json").exists()

    def test_demo_overflow_is_one_clean_error_and_writes_no_mode(self, tmp_path, capsys):
        # The modes train in lockstep: the failing one is named, and no
        # mode's checkpoint or log is written, not even an earlier mode's.
        config = write_config(tmp_path, loss={"beta": 1e300})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["demo", "--config", str(config)]) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        pattern = r"error: non-finite [a-z ]+ in mode '(%s)' at stage '\w+' epoch \d+ step \d+\n" % "|".join(MODES)
        assert re.fullmatch(pattern, err), err
        assert not mode_files(tmp_path / "out")
        assert (tmp_path / "out" / "policy_base.json").exists()

    def test_demo_mode_failing_late_writes_no_earlier_mode(self, tmp_path, capsys, monkeypatch):
        # dpo_fin's loss turns non-finite at step 100, B_H's epoch 1 batch
        # 8, after dpo and dpo_act have trained through step 99: neither of
        # them is written either.
        faults.StepFault(monkeypatch, ["B_L", "B_M", "B_H"], ("B_H", 1, 8), faults.set_value("loss", float("nan"), MODES.index("dpo_fin")))
        config = write_config(tmp_path)
        assert main(["demo", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == "error: non-finite loss in mode 'dpo_fin' at stage 'B_H' epoch 1 step 100\n"
        assert not mode_files(tmp_path / "out")

    @pytest.mark.parametrize("where", ["parent", "absolute", "subdir"])
    def test_manifest_file_outside_the_out_dir_rejected(self, tmp_path, capsys, where):
        # A copy of the first stage file that train would read and accept
        # (same pairs, same sha256) if the manifest could point outside.
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--seed", "7"]) == 0
        stage = out / "stage_0_B_L.jsonl"
        copy = out / "sub" / "x.jsonl" if where == "subdir" else tmp_path / "x.jsonl"
        copy.parent.mkdir(exist_ok=True)
        copy.write_bytes(stage.read_bytes())
        name = {"parent": "../x.jsonl", "absolute": str(copy), "subdir": "sub/x.jsonl"}[where]
        manifest = out / "manifest.json"
        edit = edit_manifest(lambda m: m["stages"][0].update(file=name))
        manifest.write_text(edit(manifest.read_text(encoding="utf-8")), encoding="utf-8")
        before = tree_bytes(out)
        capsys.readouterr()
        error = "stage entry 0 key 'file' must be a file name in the manifest's directory, got %r" % name
        with pytest.raises(SchemaError, match=re.escape(error)):
            read_manifest(out)
        for command in (["train", "--mode", "dpo"], ["eval"]):
            assert main([*command, "--out", str(out), "--seed", "7"]) == 1
            assert capsys.readouterr() == ("", "error: %s: %s\n" % (manifest, error))
        assert tree_bytes(out) == before

    def test_train_rejects_a_truncated_stage_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--seed", "7"]) == 0
        stage = out / "stage_0_B_L.jsonl"
        stage.write_text("".join(stage.read_text(encoding="utf-8").splitlines(keepends=True)[:10]), encoding="utf-8")
        assert main(["train", "--out", str(out), "--seed", "7", "--mode", "dpo"]) == 1
        assert "stage_0_B_L.jsonl: holds 10 pairs, the manifest lists 45" in capsys.readouterr().err
        assert not (out / "policy_dpo.json").exists()

    def test_non_utf8_corpus_and_stage_file_named_with_their_line(self, tmp_path, capsys):
        # A 0xff byte opens line 3 of a corpus and line 2 of a stage file;
        # the stage file keeps the manifest's sha256, so only decoding can stop it.
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--seed", "7"]) == 0
        decode = "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        first, second, *rest = (out / "toy_articles.jsonl").read_bytes().splitlines(keepends=True)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"".join([first, second, b"\xff" + rest[0], *rest[1:]]))
        capsys.readouterr()
        assert main(["forge", "--out", str(tmp_path / "other"), "--corpus", str(corpus)]) == 1
        assert capsys.readouterr() == ("", "error: %s:3: %s\n" % (corpus, decode))
        stage = out / "stage_0_B_L.jsonl"
        first, *rest = stage.read_bytes().splitlines(keepends=True)
        stage.write_bytes(b"".join([first, b"\xff" + rest[0], *rest[1:]]))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        manifest["stages"][0]["sha256"] = hashlib.sha256(stage.read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["train", "--out", str(out), "--seed", "7", "--mode", "dpo"]) == 1
        assert capsys.readouterr() == ("", "error: %s:2: %s\n" % (stage, decode))
        assert not (out / "policy_dpo.json").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("s_w", "x", "s_w must be a number or null, got 'x'"),
            ("s_w", 7.0, "s_w must be <= 1, got 7.0"),
            ("prompt", 5, "prompt must be a string, got 5"),
        ],
    )
    def test_train_rejects_a_pair_of_the_wrong_type_naming_file_and_line(self, tmp_path, capsys, key, value, message):
        # The edited file keeps the manifest's sha256, so only the schema check can stop it.
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--seed", "7"]) == 0
        stage = out / "stage_0_B_L.jsonl"
        first, *rest = stage.read_text(encoding="utf-8").splitlines(keepends=True)
        stage.write_text("".join([json.dumps({**json.loads(first), key: value}) + "\n", *rest]), encoding="utf-8")
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        manifest["stages"][0]["sha256"] = hashlib.sha256(stage.read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--out", str(out), "--seed", "7", "--mode", "hin_dpo"]) == 1
        assert capsys.readouterr() == ("", "error: %s:1: %s\n" % (stage, message))
        assert not (out / "policy_hin_dpo.json").exists()

    def test_eval_rejects_an_edited_test_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--seed", "7"]) == 0
        test_file = out / "test.jsonl"
        test_file.write_text(test_file.read_text(encoding="utf-8").replace('"s_w": ', '"s_w":', 1), encoding="utf-8")
        assert main(["eval", "--out", str(out), "--seed", "7"]) == 1
        assert "test.jsonl: sha256 differs from the manifest's" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_eval_rejects_a_truncated_checkpoint_naming_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--seed", "7"]) == 0
        assert main(["eval", "--out", str(out), "--seed", "7"]) == 0
        base = out / "policy_base.json"
        for path in (base, out / "policy_base.json.logits"):
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
            capsys.readouterr()
            assert main(["eval", "--out", str(out), "--seed", "7"]) == 1
            err = capsys.readouterr().err
            assert re.fullmatch(r"error: %s: [^\n]+\n" % re.escape(str(base)), err), err
            path.write_bytes(data)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda text: text[:12], "invalid JSON: Expecting value: line 2 column 11 (char 12)"),
            (lambda text: "[]", "the manifest must be an object, got []"),
            (edit_manifest(lambda m: m.pop("test")), "the manifest has no key 'test'"),
            (edit_manifest(lambda m: m.update(order=1)), "the manifest key 'order' must be a string, got 1"),
            (edit_manifest(lambda m: m.update(stages={})), "the manifest key 'stages' must be an array, got {}"),
            (edit_manifest(lambda m: m.update(val=[m["val"]])), "the manifest key 'val' must be an object, got [{"),
            (edit_manifest(lambda m: m["stages"][0].pop("sha256")), "stage entry 0 has no key 'sha256'"),
            (edit_manifest(lambda m: m["stages"][1].update(bucket=None)), "stage entry 1 key 'bucket' must be a string"),
            (edit_manifest(lambda m: m["stages"][2].update(file=["x"])), "stage entry 2 key 'file' must be a string"),
            (edit_manifest(lambda m: m["test"].update(pairs=True)), "the test entry key 'pairs' must be an integer"),
        ],
        ids=[
            "truncated", "not-an-object", "no-test", "order-int", "stages-object", "val-array", "no-sha256",
            "bucket-null", "file-array", "test-pairs-bool",
        ],
    )
    def test_manifest_error_names_the_file(self, tmp_path, capsys, edit, error):
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--seed", "7"]) == 0
        manifest = out / "manifest.json"
        manifest.write_text(edit(manifest.read_text(encoding="utf-8")), encoding="utf-8")
        before = tree_bytes(out)
        capsys.readouterr()
        with pytest.raises(SchemaError):
            read_manifest(out)
        for command in (["train", "--mode", "dpo"], ["eval"]):
            assert main([*command, "--out", str(out), "--seed", "7"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: %s: %s" % (manifest, error))
            assert captured.err.count("\n") == 1
        assert tree_bytes(out) == before

    def test_non_utf8_manifest_named_as_such(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["forge", "--out", str(out), "--seed", "7"]) == 0
        manifest = out / "manifest.json"
        manifest.write_bytes(b"\xff" + manifest.read_bytes())
        before = tree_bytes(out)
        capsys.readouterr()
        error = "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        with pytest.raises(SchemaError, match="^%s$" % re.escape("%s: %s" % (manifest, error))):
            read_manifest(out)
        for command in (["train", "--mode", "dpo"], ["eval"]):
            assert main([*command, "--out", str(out), "--seed", "7"]) == 1
            assert capsys.readouterr() == ("", "error: %s: %s\n" % (manifest, error))
        assert tree_bytes(out) == before

    def test_config_file_values_used_and_flags_override(self, tmp_path):
        config = write_config(tmp_path, order="section4")
        assert main(["forge", "--config", str(config), "--order", "algorithm1"]) == 0
        manifest = read_manifest(tmp_path / "out")
        assert [e["bucket"] for e in manifest["stages"]] == ["B_L", "B_M", "B_H"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"out_dir": "x", "typo_key": 1}), encoding="utf-8")
        assert main(["forge", "--config", str(path)]) == 1
        assert "typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, typo",
        [
            ("train", "epoch_per_stage"), ("loss", "bta"), ("eval", "maxlen"), ("split", "tran"),
            ("loss", "normalize_variance"),
        ],
    )
    def test_unknown_section_key_rejected(self, tmp_path, capsys, section, typo):
        config = write_config(tmp_path, **{section: {typo: 3}})
        with pytest.raises(ValueError, match=r"section '%s': \['%s'\]" % (section, typo)):
            RunConfig.from_file(config)
        assert main(["forge", "--config", str(config)]) == 1
        assert typo in capsys.readouterr().err

    def test_section_must_be_an_object(self, tmp_path):
        with pytest.raises(ValueError, match="'train' must be an object"):
            RunConfig.from_file(write_config(tmp_path, train=3))

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"train": {"refresh_reference_per_stage": "no"}}, r"section 'train' key 'refresh_reference_per_stage' must be true or false"),
            ({"seed": "7"}, r"key 'seed' must be an integer"),
            ({"train": {"epochs_per_stage": "3"}}, r"section 'train' key 'epochs_per_stage' must be an integer"),
            ({"train": {"batch_size": 2.5}}, r"section 'train' key 'batch_size' must be an integer"),
            ({"split": "abc"}, r"section 'split' must be an object"),
            ({"split": {"train": "0.75"}}, r"section 'split' key 'train' must be a number"),
            ({"train": {"refresh_reference_per_stage": 1}}, r"section 'train' key 'refresh_reference_per_stage' must be true or false"),
            ({"eval": {"max_len": True}}, r"section 'eval' key 'max_len' must be an integer"),
            ({"corpus": 3}, r"key 'corpus' must be a string or null"),
        ],
        ids=[
            "refresh-str", "seed-str", "epochs-str", "batch-float", "split-str",
            "split-train-str", "refresh-int", "max-len-bool", "corpus-int",
        ],
    )
    def test_value_of_the_wrong_type_rejected(self, tmp_path, capsys, overrides, where):
        config = write_config(tmp_path, **overrides)
        with pytest.raises(ValueError, match=where) as excinfo:
            RunConfig.from_file(config)
        assert str(excinfo.value).startswith("config %s " % config)
        assert main(["forge", "--config", str(config)]) == 1
        assert str(config) in capsys.readouterr().err

    def test_values_of_the_default_types_accepted(self, tmp_path):
        config = RunConfig.from_file(
            write_config(tmp_path, corpus=None, noise_std=0, split=[1, 0, 0], train={"learning_rate": 1})
        )
        assert (config.corpus, config.noise_std, config.split, config.learning_rate) == (None, 0, (1, 0, 0), 1)

    def test_bad_split_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, split={"train": 0.5, "val": 0.1, "test": 0.1})
        assert main(["forge", "--config", str(config)]) == 1
        assert "sum to 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"split": [1.5, -0.5, 0]}, ": split fractions must be three non-negative values, got (1.5, -0.5, 0)"),
            ({"noise_std": -1}, " key 'noise_std' must be >= 0, got -1"),
            ({"eval": {"max_len": 0}}, " section 'eval' key 'max_len' must be >= 1, got 0"),
            ({"eval": {"temperature": -0.5}}, " section 'eval' key 'temperature' must be >= 0, got -0.5"),
            ({"loss": {"finesse_samples": 1}}, " section 'loss' key 'finesse_samples' must be >= 2, got 1"),
            ({"order": "bogus"}, " key 'order' must be one of ('algorithm1', 'section4'), got 'bogus'"),
        ],
        ids=[
            "split-negative", "noise-negative", "max-len-zero", "temperature-negative", "finesse-samples-one",
            "order-bogus",
        ],
    )
    def test_bad_value_rejected_when_the_config_loads(self, tmp_path, capsys, overrides, error):
        config = write_config(tmp_path, **overrides)
        assert main(["forge", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: config %s%s\n" % (config, error)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"noise_std": float("nan")}, "key 'noise_std' must be finite, got nan"),
            ({"eval": {"temperature": float("nan")}}, "section 'eval' key 'temperature' must be finite, got nan"),
            (
                {"split": {"train": float("nan"), "val": 0.05, "test": 0.2}},
                "section 'split' key 'train' must be finite, got nan",
            ),
            ({"split": [float("inf"), 0, 0]}, "section 'split' key 'train' must be finite, got inf"),
            ({"train": {"learning_rate": float("inf")}}, "section 'train' key 'learning_rate' must be finite, got inf"),
            ({"loss": {"beta": -float("inf")}}, "section 'loss' key 'beta' must be finite, got -inf"),
        ],
        ids=["noise-nan", "temperature-nan", "split-nan", "split-list-inf", "learning-rate-inf", "beta-minus-inf"],
    )
    def test_non_finite_number_rejected_when_the_config_loads(self, tmp_path, capsys, overrides, where):
        # json reads NaN and Infinity, which every range check lets through.
        config = write_config(tmp_path, **overrides)
        assert main(["forge", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: config %s %s\n" % (config, where)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, flags", [({}, ["--seed", "-1"]), ({"seed": -1}, [])], ids=["flag", "config"])
    def test_negative_seed_rejected_before_anything_is_written(self, tmp_path, capsys, overrides, flags):
        config = write_config(tmp_path, **overrides)
        assert main(["forge", "--config", str(config), *flags]) == 1
        where = "--seed: seed" if flags else "config %s key 'seed'" % config
        assert capsys.readouterr().err == "error: %s must be >= 0, got -1\n" % where
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["forge", "train", "eval", "gradcheck", "demo"])
    def test_bad_train_value_rejected_when_the_config_loads(self, tmp_path, capsys, command):
        config = write_config(tmp_path, train={"epochs_per_stage": 0})
        assert main([command, "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: config %s section 'train' key 'epochs_per_stage' must be >= 1, got 0\n" % config
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_named_as_such(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'\xff{"seed": 1}')
        assert main(["forge", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        error = "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert capsys.readouterr() == ("", "error: config %s: %s\n" % (config, error))
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    def test_invalid_json_config_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"seed": 1,\n', encoding="utf-8")
        assert main(["forge", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        error = "invalid JSON: Expecting property name enclosed in double quotes: line 2 column 1 (char 12)"
        assert capsys.readouterr() == ("", "error: config %s: %s\n" % (config, error))
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    def test_docstring_config_block_is_the_default_config(self, tmp_path):
        doc = cli.__doc__
        block = json.loads(re.sub(r"#[^\n]*", "", doc[doc.index("{") : doc.rindex("}") + 1]))
        # Each RunConfig field is one key: a train setting in "train", eval_*
        # in "eval", the loss and split fields as sections, the rest on top.
        train_settings = {f.name for f in fields(TrainConfig)} - {"seed", "loss"}
        accepted = {
            "train": set(), "eval": set(), "split": {"train", "val", "test"},
            "loss": {f.name for f in fields(LossConfig)},
        }
        for f in fields(RunConfig):
            if f.name in train_settings:
                accepted["train"].add(f.name)
            elif f.name.startswith("eval_"):
                accepted["eval"].add(f.name[len("eval_"):])
            elif f.name not in accepted:
                accepted[f.name] = None
        documented = {key: set(value) if isinstance(value, dict) else None for key, value in block.items()}
        assert documented == accepted
        path = tmp_path / "config.json"
        path.write_text(json.dumps(block), encoding="utf-8")
        assert RunConfig.from_file(path) == RunConfig()


class TestConfigsBuiltInCode:
    """A config built in the library is checked by the kind table the
    config file is checked by, field by field of its own class."""

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("eval_max_len", 2.5, "eval_max_len must be an integer, got 2.5"),
            ("eval_temperature", float("nan"), "eval_temperature must be finite, got nan"),
            ("noise_std", "x", "noise_std must be a number, got 'x'"),
            ("corpus", 5, "corpus must be a string or null, got 5"),
            ("out_dir", 5, "out_dir must be a string, got 5"),
        ],
    )
    def test_run_config_field_of_the_wrong_kind_rejected(self, name, value, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            RunConfig(**{name: value})

    @pytest.mark.parametrize(
        "split", [(float("nan"), 0, 0), ("a", 0, 0), (True, 0, 0), 5, None], ids=["nan", "str", "bool", "int", "none"]
    )
    def test_split_fraction_of_the_wrong_kind_rejected(self, split):
        message = "split fractions must be three non-negative values, got %r" % (split,)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            RunConfig(split=split)

    def test_every_kinded_field_is_checked(self):
        # A value of another kind for each field whose annotation is a
        # kind. Annotations are kinds only as strings, so a module without
        # ``from __future__ import annotations`` would leave its fields
        # out of the walk; the set of unkinded fields pins that.
        other = {"bool": 1, "int": 2.5, "float": "x", "str": 5, "str | None": 5}
        unkinded = {LossConfig: set(), TrainConfig: {"loss"}, RunConfig: {"loss", "split"}}
        for cls, expected in unkinded.items():
            assert {f.name for f in fields(cls) if f.type not in KINDS} == expected, cls
            for f in fields(cls):
                if f.type in KINDS:
                    with pytest.raises(ValueError, match="^%s must be " % f.name):
                        cls(**{f.name: other[f.type]})


class TestGradcheck:
    def test_passes_at_default_tolerance(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["gradcheck", "--out", str(out), "--mode", "hin_dpo", "--seed", "1"])
        assert code == 0
        report = json.loads((out / "gradcheck_hin_dpo.json").read_text(encoding="utf-8"))
        assert report["passed"] is True
        assert report["max_relative_error"] < 1e-5
        assert "OK" in capsys.readouterr().out

    def test_all_modes(self, tmp_path):
        out = tmp_path / "out"
        for mode in ("dpo", "dpo_act", "dpo_fin", "hin_dpo"):
            assert main(["gradcheck", "--out", str(out), "--mode", mode]) == 0

    def test_nonzero_exit_when_tolerance_exceeded(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["gradcheck", "--out", str(out), "--mode", "dpo", "--tolerance", "1e-15"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "tolerance, message",
        [
            ("nan", "must be finite, got nan"),
            ("-1", "must be > 0, got -1.0"),
            ("0", "must be > 0, got 0.0"),
            ("inf", "must be finite, got inf"),
            ("-1e-5", "must be > 0, got -1e-05"),
            ("-inf", "must be finite, got -inf"),
            ("-nan", "must be finite, got nan"),
            ("-Infinity", "must be finite, got -inf"),
        ],
        ids=["nan", "-1", "0", "inf", "-1e-5", "-inf", "-nan", "-Infinity"],
    )
    def test_tolerance_must_be_a_finite_positive_number(self, tmp_path, capsys, tolerance, message):
        out = tmp_path / "out"
        assert main(["gradcheck", "--out", str(out), "--mode", "dpo", "--tolerance", tolerance]) == 1
        message = "--tolerance %s" % message
        assert capsys.readouterr() == ("", "error: %s\n" % message)
        assert not out.exists()


SEED_7_TRAINING_SHA256 = {
    "policy_base.json": "7aa4dff8fe40265b1c1b919dc3cc4bcc1b6286bbfca152434b99f79f56b91ca7",
    "policy_base.json.logits": "2690b97e584be957ce315aae47a9d5fee767d7b2f3cc90b6b5a9ac5b81eaf1eb",
    "policy_dpo.json": "6413338e4bbd625fe57cf5664f8af03708f3b8d45f24429faace2509e427f8ed",
    "policy_dpo.json.logits": "5784bab2a725a5118a1a5080c38bda712ca92e35ee1df45b47e034551dfd6dff",
    "policy_dpo_act.json": "9f100532877de0354c4345b64896ebe66c62e9cebfb6b318c8b0ec418a4dda96",
    "policy_dpo_act.json.logits": "f4b3695ff9244df48475790baf53ece3e862b68f1b1674ce92c79dcfa616f34b",
    "policy_dpo_fin.json": "0fbecfca2d4b6608cc12f0f38089b5057e809a92bba83e687e73600f7d24079d",
    "policy_dpo_fin.json.logits": "57e45d8151e7d9e4849a96d8712f2ffbf4653a67983467caed2ad982bc7a54de",
    "policy_hin_dpo.json": "dbd15b9f27f22b5417663d282b3bd4ca2a5908d3b13caa023bd717ac07842e03",
    "policy_hin_dpo.json.logits": "0efe145cdcf5ee215c5d3440e2f7bc6c7ef55fd84177a0680e58f085c6c4dffe",
    "report.json": "abec34b8ad33fdaec89a27cafbb28acc2aa6a7558f0bcc162d0285f70e286de4",
    "report.txt": "3f232e44fb7d1ea5ceef5a7b8ec122ef6639ae8433b098da9f6940b769c4ff2f",
    "trainlog_dpo.jsonl": "32b79ad9f183d18e53cf5e90def0077141fb8204777e1585f74670483a8b7c01",
    "trainlog_dpo_act.jsonl": "de4b081aa1fbf441284dfb99ccef373772cfa262544418b2773e35fee86ddaa2",
    "trainlog_dpo_fin.jsonl": "6a3ea825c8da59a92dc20a11190a6570203ab3ccdb6acc25cd70f0669e04cc9b",
    "trainlog_hin_dpo.jsonl": "7db1fa79340d784e7c34c13b4535bd5151120bffbfefbaf9e8272c736c1c5878",
}


class TestDemo:
    def test_demo_produces_full_artifact_set(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path)
        assert main(["demo", "--config", str(config), "--seed", "7"]) == 0
        out = tmp_path / "out"
        names = {p.name for p in out.iterdir()}
        assert {"manifest.json", "report.txt", "report.json", "policy_base.json"} <= names
        for mode in ("dpo", "dpo_act", "dpo_fin", "hin_dpo"):
            assert "policy_%s.json" % mode in names
            assert "trainlog_%s.jsonl" % mode in names
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [entry["config"] for entry in report] == [
            "base", "dpo", "dpo_act", "dpo_fin", "hin_dpo",
        ]
        # nothing written outside the output directory
        assert {p.name for p in tmp_path.iterdir()} == {"config.json", "out"}

    def test_demo_honours_the_configured_learning_rate(self, tmp_path):
        slow = {"epochs_per_stage": 2, "learning_rate": 0.05}
        for name, overrides in (("default", {}), ("slow", {"train": slow})):
            (tmp_path / name).mkdir()
            config = write_config(tmp_path / name, **overrides)
            assert main(["demo", "--config", str(config), "--seed", "7"]) == 0
        policy = "out/policy_dpo.json"
        assert (tmp_path / "default" / policy).read_bytes() != (tmp_path / "slow" / policy).read_bytes()

    def test_seed_7_training_bytes_are_pinned(self, tmp_path):
        # Every checkpoint header and table, every trainlog and both eval
        # reports of the default demo: a change to the train step that moves one bit of
        # one logit or logged value fails here.
        out = tmp_path / "out"
        assert main(["demo", "--out", str(out), "--seed", "7"]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in sorted(SEED_7_TRAINING_SHA256)
        }
        assert digests == SEED_7_TRAINING_SHA256

    def test_each_forged_file_is_read_once_per_use(self, tmp_path, monkeypatch):
        # Training reads each stage file once and builds the base vocabulary
        # from the curriculum it loaded, plus val and test; eval reads test
        # again for its prompts.
        from hindpo import dataforge

        reads = []
        original = dataforge.load_checked_pairs

        def counting(out_dir, entry):
            reads.append(entry["file"])
            return original(out_dir, entry)

        monkeypatch.setattr(dataforge, "load_checked_pairs", counting)
        out = tmp_path / "out"
        assert main(["demo", "--out", str(out), "--seed", "7"]) == 0
        manifest = read_manifest(out)
        expected = {entry["file"]: 1 for entry in manifest["stages"]}
        expected.update({manifest["val"]["file"]: 1, manifest["test"]["file"]: 2})
        assert {name: reads.count(name) for name in reads} == expected

    def test_demo_idempotent(self, tmp_path):
        config = write_config(tmp_path)
        main(["demo", "--config", str(config), "--seed", "7"])
        first = tree_bytes(tmp_path / "out")
        main(["demo", "--config", str(config), "--seed", "7"])
        assert tree_bytes(tmp_path / "out") == first


class TestAtomicArtefacts:
    def test_failed_write_leaves_the_out_dir_as_it_was(self, tmp_path, monkeypatch):
        # The train log's 21st record holds a value neither the line
        # template nor json.dumps can write, so the write fails after 20 of
        # its lines have gone to the temp file: the earlier log stays whole
        # and no temp file is left behind.
        from hindpo import trainer

        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["forge", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--mode", "dpo"]) == 0
        before = tree_bytes(out)
        lines = []
        temp_files = []
        save = trainer.TrainLog.save
        write_atomic = trainer.write_atomic

        def save_with_an_unwritable_record(log, path):
            log.records[20].loss = object()
            return save(log, path)

        def watched_write(path, chunks):
            def watched():
                try:
                    for chunk in chunks:
                        lines.append(chunk)
                        yield chunk
                except TypeError:
                    temp_files.extend(p.name for p in out.iterdir() if p.name.endswith(".tmp"))
                    raise

            return write_atomic(path, watched())

        monkeypatch.setattr(trainer.TrainLog, "save", save_with_an_unwritable_record)
        monkeypatch.setattr(trainer, "write_atomic", watched_write)
        assert main(["train", "--config", str(config), "--mode", "dpo"]) == 1
        assert len(lines) == 20
        assert temp_files == [".trainlog_dpo.jsonl.%d.tmp" % os.getpid()]  # failed mid-write
        assert tree_bytes(out) == before


class TestParsing:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["forge", "--bogus"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("seed", ["1e3", "-1e3"])
    def test_seed_in_exponent_form_is_not_an_integer(self, tmp_path, capsys, seed):
        # A negative one reaches int() too, not argparse's "expected one argument".
        with pytest.raises(SystemExit) as excinfo:
            main(["forge", "--out", str(tmp_path / "out"), "--seed", seed])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --seed: invalid int value: %r\n" % seed)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["inf", "-inf", "-NaN"])
    def test_seed_as_a_non_finite_word_is_not_an_integer(self, tmp_path, capsys, seed):
        # A negative one reaches int() too, not argparse's "expected one argument".
        with pytest.raises(SystemExit) as excinfo:
            main(["forge", "--out", str(tmp_path / "out"), "--seed", seed])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --seed: invalid int value: %r\n" % seed)
        assert not (tmp_path / "out").exists()

    def test_import_loads_no_third_party_module_but_numpy(self):
        # A fresh interpreter's `import hindpo.cli`: every top-level module
        # it loads is in the standard library, hindpo itself or numpy, the
        # one runtime dependency.
        src = os.path.dirname(os.path.dirname(hindpo.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import hindpo.cli\n"
            "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(' '.join(sorted(loaded - set(sys.stdlib_module_names))))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["hindpo", "numpy"]

    def test_module_entry_point(self, tmp_path):
        # The child imports the same hindpo as this process, installed or not.
        src = os.path.dirname(os.path.dirname(hindpo.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "hindpo.cli", "forge", "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert "forged" in result.stdout
