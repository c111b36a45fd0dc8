"""Benchmark workloads: their inputs, the calls of one pass, and the checks.

A pass is a closed loop of hindpo calls, each started when the previous
one has returned. After the pass, each operation (forge, one train mode,
eval, or the curriculum read-back) is checked; a check returns the
problems it found and a fingerprint of the operation's outputs, which
must match the first pass of the run byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpus

# Per-pass call: (operation name, function of (seed, inputs dir, out dir)).
Call = tuple[str, Callable[[int, Path, Path], object]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: dict | None  # scaled_corpus arguments; None = bundled toy corpus
    config: dict | None  # hindpo JSON config handed over with --config
    modes: tuple[str, ...]  # loss modes trained in a pass


def _cli(argv: list[str]) -> None:
    from hindpo.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    if status != 0:
        raise RuntimeError("hindpo %s exited with %d" % (argv[0], status))


def _common(seed: int, inputs: Path, out: Path) -> list[str]:
    args = ["--seed", str(seed), "--out", str(out)]
    if (inputs / "config.json").exists():
        args += ["--config", str(inputs / "config.json")]
    return args


def calls(workload: Workload) -> list[Call]:
    """The hindpo calls of one pass, in order: one `hindpo demo` on the
    bundled corpus, else forge, train per mode and eval (or, with no
    modes, the curriculum read-back)."""
    if workload.corpus is None:
        return [("demo", lambda seed, inputs, out: _cli(["demo", *_common(seed, inputs, out)]))]
    out: list[Call] = [
        (
            "forge",
            lambda seed, inputs, o: _cli(["forge", "--corpus", str(inputs / "corpus.jsonl"), *_common(seed, inputs, o)]),
        )
    ]
    for mode in workload.modes:
        out.append(
            (
                "train:" + mode,
                lambda seed, inputs, o, mode=mode: _cli(["train", "--mode", mode, *_common(seed, inputs, o)]),
            )
        )
    if workload.modes:
        out.append(("eval", lambda seed, inputs, o: _cli(["eval", *_common(seed, inputs, o)])))
    else:
        from hindpo import dataforge

        out.append(("load_curriculum", lambda seed, inputs, o: dataforge.load_curriculum(o)))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="toy_demo",
            why="hindpo demo on the bundled 60-article corpus (V=57, 4 modes): per-pair Python work and the duplicated log-ratio pass dominate",
            corpus=None,
            config=None,
            modes=("dpo", "dpo_act", "dpo_fin", "hin_dpo"),
        ),
        Workload(
            name="wide_vocab",
            why="forge, train dpo+hin_dpo and eval on 48 generated articles with V=302: full VxV renormalisation, finesse and JSON checkpoints dominate",
            corpus={"n_articles": 48, "vocab_size": 300, "expl_len": (8, 16)},
            config={"train": {"epochs_per_stage": 2, "learning_rate": 0.5}},
            modes=("dpo", "hin_dpo"),
        ),
        Workload(
            name="forge_long",
            why="forge 400 generated articles with 40-80-token explanations (V=2002) and read the stages back: LCS, METEOR and JSONL I/O only, no training",
            corpus={"n_articles": 400, "vocab_size": 2000, "expl_len": (40, 80)},
            config=None,
            modes=(),
        ),
    )
}


def prepare(workload: Workload, seed: int, inputs: Path) -> Path:
    """Write the workload's generated input files for ``seed``."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload.corpus is not None:
        corpus.write_corpus(corpus.scaled_corpus(seed=seed, **workload.corpus), inputs / "corpus.jsonl")
    if workload.config is not None:
        (inputs / "config.json").write_text(json.dumps(workload.config, indent=2) + "\n", encoding="utf-8")
    return inputs


# ---------------------------------------------------------------------------
# Checks: each returns (problems, fingerprint of the operation's outputs).

Check = Callable[[Path, dict], tuple[list[str], str]]


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_forge(out: Path, results: dict) -> tuple[list[str], str]:
    """Manifest hashes and pair counts match the files; train ranks are {0,1,2}."""
    manifest = _manifest(out)
    problems = []
    entries = manifest["stages"] + [manifest["val"], manifest["test"]]
    paths = [out / "manifest.json"]
    total = 0
    for entry in entries:
        path = out / entry["file"]
        paths.append(path)
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append("forge: %s does not match its manifest sha256" % entry["file"])
        if data.count(b"\n") != entry["pairs"]:
            problems.append("forge: %s holds %d pairs, manifest says %d" % (entry["file"], data.count(b"\n"), entry["pairs"]))
        total += entry["pairs"]
    if total != 3 * manifest["articles"]:
        problems.append("forge: %d pairs for %d articles" % (total, manifest["articles"]))
    ranks: dict[str, list[int]] = {}
    for entry in manifest["stages"]:
        for pair in _jsonl(out / entry["file"]):
            ranks.setdefault(pair["article_id"], []).append(pair["rank"])
            if pair["bucket"] != entry["bucket"]:
                problems.append("forge: pair %s in stage %s has bucket %s" % (pair["id"], entry["bucket"], pair["bucket"]))
    bad = sorted(a for a, r in ranks.items() if sorted(r) != [0, 1, 2])
    if bad or not ranks:
        problems.append("forge: train articles without ranks {0,1,2}: %s" % bad[:5])
    if (out / "toy_articles.jsonl").exists():
        paths.append(out / "toy_articles.jsonl")
    return problems, _digest(paths)


def expected_vocab(out: Path) -> int:
    """Vocabulary size the forged pairs imply: their distinct tokens plus BOS/EOS."""
    from hindpo.textmetrics import tokenize

    manifest = _manifest(out)
    tokens: set[str] = set()
    for entry in manifest["stages"] + [manifest["val"], manifest["test"]]:
        for pair in _jsonl(out / entry["file"]):
            for key in ("prompt", "preferred", "rejected"):
                tokens.update(tokenize(pair[key]))
    return len(tokens) + 2


def make_check_train(mode: str, epochs: int, batch_size: int) -> Check:
    def check(out: Path, results: dict) -> tuple[list[str], str]:
        """Train log has the expected steps and finite losses; checkpoint loads with the right V."""
        from hindpo.policy import BigramPolicy

        problems = []
        steps = epochs * sum(math.ceil(e["pairs"] / batch_size) for e in _manifest(out)["stages"])
        log_path = out / ("trainlog_%s.jsonl" % mode)
        policy_path = out / ("policy_%s.json" % mode)
        records = _jsonl(log_path)
        if len(records) != steps:
            problems.append("train:%s: %d log records, expected %d" % (mode, len(records), steps))
        if not all(math.isfinite(r["loss"]) for r in records):
            problems.append("train:%s: non-finite loss in the log" % mode)
        policy = BigramPolicy.load(policy_path)
        vocab = expected_vocab(out)
        if len(policy.vocab) != vocab:
            problems.append("train:%s: checkpoint V=%d, expected %d" % (mode, len(policy.vocab), vocab))
        return problems, _digest([policy_path, log_path])

    return check


def make_check_eval(modes: tuple[str, ...]) -> Check:
    def check(out: Path, results: dict) -> tuple[list[str], str]:
        """report.json has a row for base and each trained mode, all values in [0, 1]."""
        problems = []
        rows = json.loads((out / "report.json").read_text(encoding="utf-8"))
        configs = [row["config"] for row in rows]
        if configs != ["base", *modes]:
            problems.append("eval: report rows %s, expected %s" % (configs, ["base", *modes]))
        for row in rows:
            for key in ("r1", "r2", "rl", "meteor", "semantic"):
                if not 0.0 <= row[key] <= 1.0:
                    problems.append("eval: %s %s = %r outside [0, 1]" % (row["config"], key, row[key]))
        paths = [out / "report.json", out / "report.txt", out / "policy_base.json"]
        return problems, _digest(paths)

    return check


def check_curriculum(out: Path, results: dict) -> tuple[list[str], str]:
    """The curriculum read back has the manifest's stages, sizes and buckets."""
    dataset = results["load_curriculum"]
    manifest = _manifest(out)
    problems = []
    got = [(bucket, len(pairs)) for bucket, pairs in dataset.stages]
    want = [(e["bucket"], e["pairs"]) for e in manifest["stages"]]
    if got != want or dataset.order != manifest["order"]:
        problems.append("load_curriculum: stages %s (%s), manifest %s (%s)" % (got, dataset.order, want, manifest["order"]))
    if any(pair.bucket != bucket for bucket, pairs in dataset.stages for pair in pairs):
        problems.append("load_curriculum: a pair sits in the wrong stage")
    payload = json.dumps([p.to_json_dict() for p in dataset.all_pairs()], sort_keys=True)
    return problems, hashlib.sha256(payload.encode("utf-8")).hexdigest()


def checks(workload: Workload, inputs: Path) -> list[tuple[str, Check]]:
    """One check per operation of a pass, in pipeline order. The expected
    train steps follow the config hindpo resolves from ``inputs``."""
    from hindpo.cli import RunConfig

    path = inputs / "config.json"
    config = RunConfig.from_file(path) if path.exists() else RunConfig()
    out: list[tuple[str, Check]] = [("forge", check_forge)]
    out += [("train:" + m, make_check_train(m, config.epochs_per_stage, config.batch_size)) for m in workload.modes]
    out.append(("eval", make_check_eval(workload.modes)) if workload.modes else ("load_curriculum", check_curriculum))
    return out


def quality(workload: Workload, out: Path) -> tuple[float, float]:
    """(hin_dpo ROUGE-L x 100, mean hin_dpo loss over its last epoch); 0 when not trained."""
    if "hin_dpo" not in workload.modes:
        return 0.0, 0.0
    rows = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rouge = next(row["rl"] for row in rows if row["config"] == "hin_dpo") * 100.0
    records = _jsonl(out / "trainlog_hin_dpo.jsonl")
    last = (records[-1]["stage"], records[-1]["epoch"])
    losses = [r["loss"] for r in records if (r["stage"], r["epoch"]) == last]
    return rouge, sum(losses) / len(losses)
