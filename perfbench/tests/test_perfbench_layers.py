"""Hooks, the per-layer catalogue, and BENCHMARK.json agree with each other.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ADDED_BY_RUN = {"cli.import.s", "cli.import.third_party_s", "trace.overhead_s", "heldout_rouge_l", "final_train_loss"}


def test_benchmark_json_lists_the_catalogue():
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert listed == [(name, unit, better) for name, unit, better, _ in layers.CATALOGUE]


def test_benchmark_json_lists_the_workloads():
    listed = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert listed == {name: w.why for name, w in workloads.WORKLOADS.items()}


def test_a_pass_yields_every_catalogue_metric():
    metrics = layers.pass_metrics(Recorder(), 0.0, 1.0)
    assert set(metrics) | ADDED_BY_RUN == {name for name, _, _, _ in layers.CATALOGUE}
    assert metrics["unattributed_s"] == 1.0


def test_every_hook_target_exists_and_uninstall_restores_it():
    from hindpo import dataforge, policy, trainer

    before = (trainer.loss_gradient, dataforge.tokenize, vars(policy.BigramPolicy)["load"])
    recorder = Recorder()
    uninstall = layers.install(recorder)
    try:
        assert trainer.loss_gradient is not before[0]
        assert dataforge.tokenize is not before[1]
        assert isinstance(vars(policy.BigramPolicy)["load"], classmethod)
        dataforge.tokenize("a b")
    finally:
        uninstall()
    assert (trainer.loss_gradient, dataforge.tokenize, vars(policy.BigramPolicy)["load"]) == before
    assert recorder.counts["textmetrics.tokenize.calls"] == 1
    for module, attribute, _, _, _ in layers.HOOKS:
        undo = layers.patch(module, attribute, lambda fn: fn)
        assert undo is not None, (module, attribute)
        undo()


def test_import_profile_counts_only_what_follows_the_mark():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       500 |        500 | site",
            "perfbench-mark",
            "import time:       300 |        300 |     numpy.core",
            "import time:       100 |        400 |   numpy",
            "import time:        50 |         50 |   hindpo.policy",
            "import time:        20 |        470 | hindpo",
            "import time:        30 |         30 | hindpo.cli",
        ]
    )
    total, outside = layers.import_profile(stderr)
    assert total == pytest.approx(500e-6)
    assert outside == pytest.approx((500 - 50 - 20 - 30) * 1e-6)
