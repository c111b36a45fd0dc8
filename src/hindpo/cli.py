"""Command-line pipeline: forge -> train -> eval, plus gradcheck and demo.

All subcommands read an optional JSON config file (flags override file
values) and write only inside the chosen output directory. Given the same
inputs, seed and config, every subcommand produces byte-identical output
files. Config schema, with defaults:

    {
      "corpus": null,              # JSONL articles; null = bundled toy corpus
      "out_dir": "out",
      "seed": 0,
      "order": "algorithm1",       # or "section4"
      "split": {"train": 0.75, "val": 0.05, "test": 0.2},
      "noise_std": 0.01,           # base-policy init noise
      "loss": {"beta": 0.6, "epsilon": 0.05, "mode": "hin_dpo",
               "finesse_samples": 5, "finesse_temperature": 0.9,
               "finesse_max_len": 16, "scale_cap": 20.0},
      "train": {"epochs_per_stage": 10, "learning_rate": 0.5,
                "batch_size": 2, "refresh_reference_per_stage": true},
      "eval": {"max_len": 24, "temperature": 0.0}
    }
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import corpora, dataforge, evalharness, trainer
from .dataforge import DEFAULT_SPLIT, STAGE_ORDERS, _check_split
from .fileio import check_object, check_value, limited, read_json, write_atomic
from .losses import MODES, LossConfig, LossExample
from .policy import EOS, BigramPolicy, Vocabulary, table_path
from .trainer import TrainConfig

GRADCHECK_TOLERANCE = 1e-5

_SPLIT_KEYS = ("train", "val", "test")
_TRAIN_KEYS = ("epochs_per_stage", "learning_rate", "batch_size", "refresh_reference_per_stage")
_EVAL_KEYS = ("max_len", "temperature")


@dataclass
class RunConfig(TrainConfig):
    """The train settings plus where the data comes from and goes to."""

    corpus: str | None = None
    out_dir: str = "out"
    order: str = limited(("one of", tuple(STAGE_ORDERS)), default="algorithm1")
    split: tuple[float, float, float] = DEFAULT_SPLIT
    noise_std: float = limited((">=", 0), default=0.01)
    eval_max_len: int = limited((">=", 1), default=24)
    eval_temperature: float = limited((">=", 0), default=0.0)

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_split(self.split)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Read a JSON config; absent keys keep the defaults. Bytes that are
        not UTF-8 JSON, unknown keys, and values of the wrong type, out of
        range or not among their choices raise ValueError naming the file
        (and the section and key)."""
        data = read_json(path, ValueError, "config %s" % path)
        own = {f.name: f for f in fields(cls)}
        kinds = {
            **{key: own[key] for key in ("corpus", "out_dir", "seed", "order", "noise_std")},
            "split": dict.fromkeys(_SPLIT_KEYS, "float"),
            "loss": {f.name: f for f in fields(LossConfig)},
            "train": {key: own[key] for key in _TRAIN_KEYS},
            "eval": {key: own["eval_" + key] for key in _EVAL_KEYS},
        }
        split = data.get("split") if isinstance(data, dict) else None
        if isinstance(split, list) and len(split) == len(_SPLIT_KEYS):
            data["split"] = dict(zip(_SPLIT_KEYS, split))
        check_object(data, kinds, "config %s" % path, ValueError)
        kwargs = {key: value for key, value in data.items() if not isinstance(kinds[key], dict)}
        if "split" in data:
            kwargs["split"] = tuple(data["split"].get(key, d) for key, d in zip(_SPLIT_KEYS, DEFAULT_SPLIT))
        kwargs.update(data.get("train", {}))
        kwargs.update(("eval_" + key, value) for key, value in data.get("eval", {}).items())
        try:
            return cls(loss=LossConfig(**data.get("loss", {})), **kwargs)
        except ValueError as exc:
            raise ValueError("config %s: %s" % (path, exc)) from exc


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values (or the defaults) with the given flags on
    top; a flag value out of range raises ValueError naming the flag."""
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    mode = getattr(args, "mode", None)
    flags = (
        ("--out", "out_dir", args.out),
        ("--seed", "seed", args.seed),
        ("--order", "order", getattr(args, "order", None)),
        ("--corpus", "corpus", getattr(args, "corpus", None)),
        ("--mode", "loss", None if mode is None else replace(config.loss, mode=mode)),
    )
    for flag, key, value in flags:
        if value is not None:
            try:
                config = replace(config, **{key: value})
            except ValueError as exc:
                raise ValueError("%s: %s" % (flag, exc)) from exc
    return config


def _load_corpus(config: RunConfig, out_dir: Path) -> list[dataforge.ArticleRecord]:
    if config.corpus:
        return dataforge.load_articles(config.corpus)
    articles = corpora.toy_corpus()
    out_dir.mkdir(parents=True, exist_ok=True)
    dataforge.dump_articles(articles, out_dir / "toy_articles.jsonl")
    return articles


def _run_forge(config: RunConfig) -> Path:
    out_dir = Path(config.out_dir)
    articles = _load_corpus(config, out_dir)
    result = dataforge.forge(
        articles, order=config.order, split=config.split, seed=config.seed
    )
    manifest_path = dataforge.emit_forge(result, out_dir)
    # What an earlier forge, train or eval left here belongs to another
    # corpus, vocabulary or split; train and eval would read its
    # checkpoints back as this forge's. Removed only once the new forge is
    # written, so a failed forge leaves the earlier run whole.
    current = {entry["file"] for entry in dataforge.read_manifest(out_dir)["stages"]}
    stale = [path for path in out_dir.glob("stage_*.jsonl") if path.name not in current]
    checkpoints = [out_dir / ("policy_%s.json" % name) for name in evalharness.CONFIG_ORDER]
    stale += checkpoints + [table_path(path) for path in checkpoints]
    stale += [out_dir / ("trainlog_%s.jsonl" % mode) for mode in MODES]
    stale += [out_dir / "report.txt", out_dir / "report.json"]
    toy_copy = out_dir / "toy_articles.jsonl"
    if config.corpus and toy_copy.resolve() != Path(config.corpus).resolve():
        stale.append(toy_copy)
    for path in stale:
        path.unlink(missing_ok=True)
    return manifest_path


def _base_policy(
    config: RunConfig, out_dir: Path, curriculum: dataforge.CurriculumDataset | None = None
) -> BigramPolicy:
    """The checkpointed base policy, or a new one over the vocabulary of
    every forged split, saved. ``curriculum``, when given, is the one
    already loaded from ``out_dir``; it is not read again."""
    base_path = out_dir / "policy_base.json"
    if base_path.exists():
        return BigramPolicy.load(base_path)
    manifest = dataforge.read_manifest(out_dir)
    if curriculum is None:
        curriculum = dataforge.load_curriculum(out_dir)
    pairs = curriculum.all_pairs()
    for entry in (manifest["val"], manifest["test"]):
        pairs.extend(dataforge.load_checked_pairs(out_dir, entry))
    vocab = trainer.vocab_from_pairs(pairs)
    base = BigramPolicy.new(vocab, seed=config.seed, noise_std=config.noise_std)
    base.save(base_path)
    return base


def _run_train(config: RunConfig, modes: Sequence[str]) -> list[tuple[Path, Path]]:
    """Train ``modes`` in lockstep, then write each mode's checkpoint and
    log: a failure in any mode leaves none of them written."""
    out_dir = Path(config.out_dir)
    curriculum = dataforge.load_curriculum(out_dir)
    base = _base_policy(config, out_dir, curriculum)
    runs = trainer.train_modes(curriculum, base, config, modes)
    return [
        (trained.save(out_dir / ("policy_%s.json" % mode)), log.save(out_dir / ("trainlog_%s.jsonl" % mode)))
        for mode, (trained, log) in zip(modes, runs)
    ]


def _run_eval(config: RunConfig) -> str:
    """Generate each checkpointed config's test outputs (a mode with no
    checkpoint is skipped), score them all in one ``evaluate_configs``
    call and write the report."""
    out_dir = Path(config.out_dir)
    manifest = dataforge.read_manifest(out_dir)
    test_pairs = dataforge.load_checked_pairs(out_dir, manifest["test"])
    seen: dict[str, tuple[str, str]] = {}
    for pair in test_pairs:
        seen.setdefault(pair.article_id, (pair.prompt, pair.preferred))
    prompts = [seen[a][0] for a in sorted(seen)]
    references = [seen[a][1] for a in sorted(seen)]
    outputs = {}
    for name in evalharness.CONFIG_ORDER:
        path = out_dir / ("policy_%s.json" % name)
        if name == "base":
            policy = _base_policy(config, out_dir)
        elif path.exists():
            policy = BigramPolicy.load(path)
        else:
            continue
        outputs[name] = evalharness.generate(
            policy,
            prompts,
            max_len=config.eval_max_len,
            temperature=config.eval_temperature,
            seed=config.seed,
        )
    reports = evalharness.evaluate_configs(outputs, references)
    text = evalharness.report_table(reports, json_path=out_dir / "report.json")
    write_atomic(out_dir / "report.txt", text)
    return text


def _gradcheck_fixture(config: RunConfig) -> tuple[BigramPolicy, BigramPolicy, list[LossExample]]:
    rng = np.random.default_rng(config.seed)
    vocab = Vocabulary.from_tokens(["q0", "q1", "w0", "w1", "w2"])
    policy = BigramPolicy(vocab, rng.normal(0.0, 1.0, (len(vocab), len(vocab))))
    reference = BigramPolicy(vocab, rng.normal(0.0, 1.0, (len(vocab), len(vocab)))).snapshot()
    words = ["w0", "w1", "w2"]
    examples = []
    for _ in range(3):
        prompt = ["q%d" % rng.integers(2)]
        preferred = [words[rng.integers(3)] for _ in range(int(rng.integers(1, 4)))] + [EOS]
        rejected = [words[rng.integers(3)] for _ in range(int(rng.integers(1, 4)))] + [EOS]
        examples.append(
            LossExample(
                prompt=prompt,
                preferred=preferred,
                rejected=rejected,
                preferred_actuality=float(rng.uniform(0, 1)),
                rejected_actuality=float(rng.uniform(0, 1)),
                effective_variance=float(rng.uniform(0, 1)),
            )
        )
    return policy, reference, examples


def _run_gradcheck(config: RunConfig, mode: str, tolerance: float) -> tuple[float, Path]:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy, reference, examples = _gradcheck_fixture(config)
    error = trainer.gradcheck(policy, examples, replace(config.loss, mode=mode), reference)
    report = {"mode": mode, "max_relative_error": error, "tolerance": tolerance, "passed": error < tolerance}
    report_path = write_atomic(out_dir / ("gradcheck_%s.json" % mode), json.dumps(report, indent=2) + "\n")
    return error, report_path


def cmd_forge(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    manifest_path = _run_forge(config)
    manifest = dataforge.read_manifest(config.out_dir)
    stages = " -> ".join(entry["bucket"] for entry in manifest["stages"])
    print("forged %s (stages: %s)" % (manifest_path, stages))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    mode = config.loss.mode
    [(policy_path, log_path)] = _run_train(config, [mode])
    print("trained %s -> %s (log: %s)" % (mode, policy_path, log_path))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    print(_run_eval(config), end="")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    check_value("--tolerance", "float", args.tolerance, (">", 0))
    config = _resolve_config(args)
    mode = config.loss.mode
    error, report_path = _run_gradcheck(config, mode, args.tolerance)
    status = "OK" if error < args.tolerance else "FAIL"
    print("gradcheck %s: max relative error %.3e (%s; report: %s)" % (mode, error, status, report_path))
    return 0 if error < args.tolerance else 1


def cmd_demo(args: argparse.Namespace) -> int:
    """Full pipeline: forge the bundled toy corpus (or the config file's
    ``corpus``), train all modes in lockstep (one ``train_modes`` call; a
    one-mode ``train`` is the same loop with K = 1), eval. A mode that
    fails to train fails the demo before any mode's checkpoint or log is
    written."""
    config = _resolve_config(args)
    manifest_path = _run_forge(config)
    print("forged %s" % manifest_path)
    for mode, (policy_path, _) in zip(MODES, _run_train(config, MODES)):
        print("trained %s -> %s" % (mode, policy_path))
    print(_run_eval(config), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hindpo",
        description="Preference-optimization pipeline: dataset forging, curriculum training, evaluation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (flags override file values)")
    common.add_argument("--seed", type=int, help="random seed")
    common.add_argument("--out", help="output directory")
    common.add_argument("--traceback", action="store_true", help="on error, raise with the full traceback")
    sub = parser.add_subparsers(dest="command", required=True)

    forge = sub.add_parser("forge", parents=[common], help="build curriculum files from a corpus")
    forge.add_argument("--corpus", help="input articles (JSONL); omit to use the bundled toy corpus")
    forge.add_argument("--order", choices=sorted(STAGE_ORDERS), help="stage order")
    forge.set_defaults(handler=cmd_forge)

    train = sub.add_parser("train", parents=[common], help="train one loss mode on forged stages")
    train.add_argument("--mode", choices=MODES, help="loss mode to train")
    train.set_defaults(handler=cmd_train)

    eval_cmd = sub.add_parser("eval", parents=[common], help="score trained policies on the test split")
    eval_cmd.set_defaults(handler=cmd_eval)

    gradcheck = sub.add_parser("gradcheck", parents=[common], help="finite-difference check of the loss gradient")
    gradcheck.add_argument("--mode", choices=MODES, help="loss mode to check")
    gradcheck.add_argument("--tolerance", type=float, default=GRADCHECK_TOLERANCE)
    gradcheck.set_defaults(handler=cmd_gradcheck)

    demo = sub.add_parser("demo", parents=[common], help="full pipeline: forge, train all modes, eval")
    demo.add_argument("--order", choices=sorted(STAGE_ORDERS), help="stage order")
    demo.set_defaults(handler=cmd_demo)
    # argparse takes -1 and -0.5 as a flag's value but -1e-5 and -inf as
    # options; this takes them, and every non-finite word float() reads, as values too.
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"^-((\d+|\d*\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # surfaced as a clean diagnostic, not a traceback
        if args.traceback:
            raise
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
