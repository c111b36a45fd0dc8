"""Per-layer hooks for the traced run, and the per-layer metric catalogue.

Hooks wrap public functions of hindpo's modules from outside: every
binding of the original object in a loaded ``hindpo`` module is replaced
(``from .losses import loss_gradient`` makes a second binding in
``trainer``), and :func:`install` returns an undo function. A hook whose
target no longer exists is skipped, so its metrics read 0 rather than
stopping the benchmark.

``CATALOGUE`` names every per-layer metric with its unit, which direction
is better, and which end-to-end metric it should move on which workload.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

from spans import Recorder, self_times, unattributed

MODES = ("dpo", "dpo_act", "dpo_fin", "hin_dpo")
MODULES = ("textmetrics", "dataforge", "corpora", "policy", "losses", "trainer", "evalharness")


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def _lcs_cells(counts, args, kwargs, result, seconds):
    counts["textmetrics.rouge_l.cells"] += len(args[0]) * len(args[1])


def _bytes_read_arg(counts, args, kwargs, result, seconds):
    counts["dataforge.io.bytes_read"] += _file_size(args[0])


def _bytes_read_manifest(counts, args, kwargs, result, seconds):
    counts["dataforge.io.bytes_read"] += _file_size(Path(args[0]) / "manifest.json")


def _bytes_written_result(counts, args, kwargs, result, seconds):
    counts["dataforge.io.bytes_written"] += _file_size(result)


def _rows_normalised(counts, args, kwargs, result, seconds):
    counts["policy.rows_normalised"] += len(args[0].vocab)


def _policy_saved(counts, args, kwargs, result, seconds):
    counts["policy.save.bytes"] += _file_size(result)
    counts["policy.vocab_size"] = max(counts["policy.vocab_size"], len(args[0].vocab))


def _policy_loaded(counts, args, kwargs, result, seconds):
    counts["policy.vocab_size"] = max(counts["policy.vocab_size"], len(result.vocab))


def _pairs_in_batch(counts, args, kwargs, result, seconds):
    counts["losses.pairs"] += len(args[0])


def _train_run(counts, args, kwargs, result, seconds):
    curriculum, config = args[0], args[2]
    counts["trainer.train.%s.s" % config.loss.mode] += seconds
    counts["trainer.steps"] += len(result[1].records)
    counts["trainer.pairs"] += config.epochs_per_stage * sum(len(p) for _, p in curriculum.stages)


def _finesse_examples(counts, args, kwargs, result, seconds):
    counts["trainer.attach_finesse.examples"] += len(args[0])


def _prompts_generated(counts, args, kwargs, result, seconds):
    counts["evalharness.prompts"] += len(args[1])


# (module, attribute, span name, work counter, records a span)
HOOKS: tuple[tuple[str, str, str, Callable | None, bool], ...] = (
    ("textmetrics", "tokenize", "textmetrics.tokenize", None, True),
    ("textmetrics", "rouge_l", "textmetrics.rouge_l", _lcs_cells, True),
    ("textmetrics", "meteor", "textmetrics.meteor", None, True),
    ("textmetrics", "rouge_n", "textmetrics.rouge_n", None, True),
    ("textmetrics", "CharTrigramCosine.score", "textmetrics.semantic", None, True),
    ("dataforge", "load_articles", "dataforge.load_articles", _bytes_read_arg, True),
    ("dataforge", "score_and_rank", "dataforge.score_and_rank", None, True),
    ("dataforge", "bucketize", "dataforge.bucketize", None, True),
    ("dataforge", "emit_forge", "dataforge.emit_forge", _bytes_written_result, True),
    ("dataforge", "load_curriculum", "dataforge.load_curriculum", None, True),
    ("dataforge", "load_pairs", "dataforge.load_pairs", _bytes_read_arg, False),
    ("dataforge", "read_manifest", "dataforge.read_manifest", _bytes_read_manifest, False),
    ("dataforge", "dump_pairs", "dataforge.dump_pairs", _bytes_written_result, False),
    ("dataforge", "dump_articles", "dataforge.dump_articles", _bytes_written_result, False),
    ("corpora", "toy_corpus", "corpora.toy_corpus", None, True),
    ("policy", "BigramPolicy.sequence_log_prob", "policy.sequence_log_prob", _rows_normalised, True),
    ("policy", "BigramPolicy.grad_sequence_log_prob", "policy.grad_sequence_log_prob", _rows_normalised, True),
    ("policy", "BigramPolicy.sample_response", "policy.sample_response", None, True),
    ("policy", "BigramPolicy.greedy_response", "policy.greedy_response", None, True),
    ("policy", "BigramPolicy.save", "policy.save", _policy_saved, True),
    ("policy", "BigramPolicy.load", "policy.load", _policy_loaded, True),
    ("losses", "loss_gradient", "losses.loss_gradient", _pairs_in_batch, True),
    ("losses", "compute_finesse", "losses.compute_finesse", None, True),
    ("losses", "log_ratios", "losses.log_ratios", None, False),
    ("trainer", "train", "trainer.train", _train_run, True),
    ("trainer", "preference_stats", "trainer.preference_stats", None, True),
    ("trainer", "encode_pairs", "trainer.encode_pairs", None, True),
    ("trainer", "attach_finesse", "trainer.attach_finesse", _finesse_examples, True),
    ("evalharness", "generate", "evalharness.generate", _prompts_generated, True),
    ("evalharness", "evaluate", "evalharness.evaluate", None, True),
    ("evalharness", "report_table", "evalharness.report_table", None, True),
)


def patch(module_name: str, attribute: str, make: Callable[[Callable], Callable]) -> Callable[[], None] | None:
    """Replace ``hindpo.<module_name>.<attribute>`` by ``make(original)``.

    ``attribute`` is a function name or ``Class.method``. A module-level
    function is rebound in every loaded ``hindpo`` module that holds it.
    Returns an undo function, or None when the target does not exist.
    """
    module = importlib.import_module("hindpo." + module_name)
    owner_name, _, member = attribute.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        raw = inspect.getattr_static(owner, member, None) if owner is not None else None
        if raw is None:
            return None
        if isinstance(raw, classmethod):
            setattr(owner, member, classmethod(make(raw.__func__)))
        else:
            setattr(owner, member, make(raw))
        return lambda: setattr(owner, member, raw)
    original = getattr(module, member, None)
    if original is None:
        return None
    wrapped = make(original)
    bound = [
        (loaded, key)
        for loaded_name, loaded in list(sys.modules.items())
        if loaded_name == "hindpo" or loaded_name.startswith("hindpo.")
        for key, value in list(vars(loaded).items())
        if value is original
    ]
    for loaded, key in bound:
        setattr(loaded, key, wrapped)

    def undo() -> None:
        for loaded, key in bound:
            setattr(loaded, key, original)

    return undo


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every hook target found; return a function that unwraps them."""
    undos = []
    for module_name, attribute, name, work, span in HOOKS:
        undo = patch(
            module_name,
            attribute,
            lambda fn, name=name, work=work, span=span: recorder.wrap(name, fn, work, span),
        )
        if undo is None:
            print("perfbench: hook target hindpo.%s.%s is gone" % (module_name, attribute), file=sys.stderr)
        else:
            undos.append(undo)

    def uninstall() -> None:
        for undo in reversed(undos):
            undo()

    return uninstall


# (name, unit, better, what it should move). The stage throughputs
# forge_articles_per_s, train_pairs_per_s and eval_prompts_per_s are traced
# per-layer metrics themselves; each is bounded through wall_s of the
# workload named with it.
_MOVES_FORGE = "forge_articles_per_s on forge_long; eval_prompts_per_s a little on toy_demo and wide_vocab"
_MOVES_DATAFORGE = "forge_articles_per_s on forge_long; wall_s on wide_vocab"
_MOVES_POLICY = "train_pairs_per_s mostly on wide_vocab, a little on toy_demo"
_MOVES_POLICY_IO = "wall_s and eval_prompts_per_s on wide_vocab"
_MOVES_LOSS = "train_pairs_per_s on toy_demo (loss core) and wide_vocab (finesse)"
_MOVES_TRAINER = "train_pairs_per_s on toy_demo"
_MOVES_EVAL = "eval_prompts_per_s on toy_demo and wide_vocab"
_MOVES_CLI = "setup_s on every workload"
_MOVES_SHARE = "wall_s on the workload that stresses the layer"
_MOVES_GUARD = "none: deterministic quality guard, must not change with a speed-up"

CATALOGUE: tuple[tuple[str, str, str, str], ...] = (
    *[
        entry
        for fn in ("tokenize", "rouge_l", "meteor", "rouge_n", "semantic")
        for entry in (
            ("textmetrics.%s.calls" % fn, "count", "lower", _MOVES_FORGE),
            ("textmetrics.%s.self_s" % fn, "s", "lower", _MOVES_FORGE),
        )
    ],
    ("textmetrics.rouge_l.cells", "count", "lower", _MOVES_FORGE),
    *[
        ("dataforge.%s.self_s" % fn, "s", "lower", _MOVES_DATAFORGE)
        for fn in ("load_articles", "score_and_rank", "bucketize", "emit_forge", "load_curriculum")
    ],
    ("dataforge.io.bytes_written", "bytes", "lower", _MOVES_DATAFORGE),
    ("dataforge.io.bytes_read", "bytes", "lower", _MOVES_DATAFORGE),
    ("corpora.toy_corpus.s", "s", "lower", "wall_s on toy_demo; expected to stay negligible"),
    *[
        entry
        for fn in ("sequence_log_prob", "grad_sequence_log_prob", "sample_response", "greedy_response")
        for entry in (
            ("policy.%s.calls" % fn, "count", "lower", _MOVES_POLICY),
            ("policy.%s.self_s" % fn, "s", "lower", _MOVES_POLICY),
        )
    ],
    *[
        entry
        for fn in ("save", "load")
        for entry in (
            ("policy.%s.calls" % fn, "count", "lower", _MOVES_POLICY_IO),
            ("policy.%s.self_s" % fn, "s", "lower", _MOVES_POLICY_IO),
        )
    ],
    ("policy.save.bytes", "bytes", "lower", _MOVES_POLICY_IO),
    ("policy.vocab_size", "count", "lower", _MOVES_POLICY),
    ("policy.rows_normalised", "count", "lower", _MOVES_POLICY),
    ("losses.loss_gradient.calls", "count", "lower", _MOVES_LOSS),
    ("losses.loss_gradient.self_s", "s", "lower", _MOVES_LOSS),
    ("losses.loss_gradient.p50_ms", "ms", "lower", _MOVES_LOSS),
    ("losses.loss_gradient.p99_ms", "ms", "lower", _MOVES_LOSS),
    ("losses.compute_finesse.calls", "count", "lower", _MOVES_LOSS),
    ("losses.compute_finesse.self_s", "s", "lower", _MOVES_LOSS),
    ("losses.log_ratios.per_pair", "count", "lower", _MOVES_LOSS),
    *[("trainer.train.%s.s" % mode, "s", "lower", _MOVES_TRAINER) for mode in MODES],
    ("trainer.train.self_s", "s", "lower", _MOVES_TRAINER),
    ("trainer.steps", "count", "lower", _MOVES_TRAINER),
    ("trainer.preference_stats.calls", "count", "lower", _MOVES_TRAINER),
    ("trainer.preference_stats.self_s", "s", "lower", _MOVES_TRAINER),
    ("trainer.encode_pairs.self_s", "s", "lower", _MOVES_TRAINER),
    ("trainer.attach_finesse.self_s", "s", "lower", _MOVES_TRAINER),
    ("trainer.attach_finesse.unique_ratio", "count", "lower", _MOVES_TRAINER),
    *[
        entry
        for fn in ("generate", "evaluate", "report_table")
        for entry in (
            ("evalharness.%s.calls" % fn, "count", "lower", _MOVES_EVAL),
            ("evalharness.%s.self_s" % fn, "s", "lower", _MOVES_EVAL),
        )
    ],
    ("cli.import.s", "s", "lower", _MOVES_CLI),
    ("cli.import.third_party_s", "s", "lower", _MOVES_CLI),
    *[("%s.self_s" % module, "s", "lower", _MOVES_SHARE) for module in MODULES],
    ("unattributed_s", "s", "lower", _MOVES_SHARE),
    ("trace.wall_s", "s", "lower", "none: traced pass wall time, the base of trace.overhead_s"),
    ("trace.overhead_s", "s", "lower", "none: traced wall_s minus untraced wall_s"),
    ("forge_articles_per_s", "1/s", "higher", "wall_s on forge_long"),
    ("train_pairs_per_s", "1/s", "higher", "wall_s on toy_demo and wide_vocab"),
    ("eval_prompts_per_s", "1/s", "higher", "wall_s on toy_demo and wide_vocab"),
    ("heldout_rouge_l", "x100", "higher", _MOVES_GUARD),
    ("final_train_loss", "loss", "lower", _MOVES_GUARD),
)

def _percentile_ms(values: list[float], q: float) -> float:
    """Nearest-rank percentile of seconds, in milliseconds (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1] * 1000.0


def pass_metrics(recorder: Recorder, start: float, end: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass spanning ``[start, end]``.

    Returns every catalogue name the trace itself determines; the import,
    overhead and quality entries are added by the caller.
    """
    counts: Counter = recorder.counts
    spans = recorder.spans
    self_by_name: Counter = Counter()
    total_by_name: Counter = Counter()
    durations: dict[str, list[float]] = {}
    for (name, s, e, _), own in zip(spans, self_times(spans)):
        self_by_name[name] += own
        total_by_name[name] += e - s
        durations.setdefault(name, []).append(e - s)

    out: dict[str, float] = {}
    for name, unit, _, _ in CATALOGUE:
        stem, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = counts[name]
        elif stat == "self_s" and stem in MODULES:
            out[name] = sum(v for k, v in self_by_name.items() if k.startswith(stem + "."))
        elif stat == "self_s":
            out[name] = self_by_name[stem]
    pairs = counts["losses.pairs"]
    finesse_examples = counts["trainer.attach_finesse.examples"]
    eval_seconds = total_by_name["evalharness.generate"] + total_by_name["evalharness.evaluate"]
    forge_end = next((e for name, _, e, _ in spans if name == "dataforge.emit_forge"), None)
    out.update(
        {
            "textmetrics.rouge_l.cells": counts["textmetrics.rouge_l.cells"],
            "dataforge.io.bytes_written": counts["dataforge.io.bytes_written"],
            "dataforge.io.bytes_read": counts["dataforge.io.bytes_read"],
            "corpora.toy_corpus.s": total_by_name["corpora.toy_corpus"],
            "policy.save.bytes": counts["policy.save.bytes"],
            "policy.vocab_size": counts["policy.vocab_size"],
            "policy.rows_normalised": counts["policy.rows_normalised"],
            "losses.loss_gradient.p50_ms": _percentile_ms(durations.get("losses.loss_gradient", []), 50),
            "losses.loss_gradient.p99_ms": _percentile_ms(durations.get("losses.loss_gradient", []), 99),
            "losses.log_ratios.per_pair": counts["losses.log_ratios.calls"] / pairs if pairs else 0.0,
            "trainer.steps": counts["trainer.steps"],
            "trainer.attach_finesse.unique_ratio": (
                counts["losses.compute_finesse.calls"] / finesse_examples if finesse_examples else 0.0
            ),
            "unattributed_s": unattributed(spans, start, end),
            "trace.wall_s": end - start,
            "forge_articles_per_s": (
                counts["dataforge.score_and_rank.calls"] / (forge_end - start) if forge_end else 0.0
            ),
            "train_pairs_per_s": (
                counts["trainer.pairs"] / total_by_name["trainer.train"] if total_by_name["trainer.train"] else 0.0
            ),
            "eval_prompts_per_s": counts["evalharness.prompts"] / eval_seconds if eval_seconds else 0.0,
        }
    )
    for mode in MODES:
        out["trainer.train.%s.s" % mode] = counts["trainer.train.%s.s" % mode]
    return out


def import_profile(stderr: str) -> tuple[float, float]:
    """(total, outside-hindpo) seconds from ``-X importtime`` output.

    Only lines after a ``perfbench-mark`` line count, so interpreter
    start-up imports are left out. Total is the sum of the cumulative
    times of top-level imports; the outside share subtracts the self time
    of every ``hindpo`` module.
    """
    lines = stderr.splitlines()
    if "perfbench-mark" in lines:
        lines = lines[lines.index("perfbench-mark") + 1 :]
    total = 0
    own = 0
    for line in lines:
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:") :].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        module = fields[2]
        name = module.strip()
        if module.startswith(" ") and not module.startswith("  "):
            total += cumulative_us
        if name == "hindpo" or name.startswith("hindpo."):
            own += self_us
    return total / 1e6, (total - own) / 1e6


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per key, the median over passes; whole-number counts stay integers."""
    out = {}
    for key in samples[0]:
        values = [sample[key] for sample in samples]
        integral = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if integral else statistics.median(values)
    return out
