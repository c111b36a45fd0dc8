"""A traced pass records hindpo's own calls, not the benchmark's checks.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

TINY = workloads.Workload(
    name="tiny",
    why="forge, train hin_dpo for one epoch per stage and eval on 9 generated articles",
    corpus={"n_articles": 9, "vocab_size": 40, "expl_len": (4, 8)},
    config={"train": {"epochs_per_stage": 1}},
    modes=("hin_dpo",),
)


def test_traced_pass_counts_equal_those_of_hindpo_alone(tmp_path):
    inputs = workloads.prepare(TINY, 3, tmp_path / "inputs")
    runner = run.Runner(TINY, 3, inputs, tmp_path / "out")
    traced, start, end = runner.traced_pass()
    assert (runner.attempted, runner.failed, runner.problems) == (3, 0, [])

    alone = Recorder()
    uninstall = layers.install(alone)
    try:
        for _, call in workloads.calls(TINY):
            call(3, inputs, tmp_path / "alone")
    finally:
        uninstall()

    def work(counts):  # calls and work counts, without the timings
        return {name: value for name, value in counts.items() if not name.endswith(".s")}

    assert work(traced.counts) == work(alone.counts)
    assert traced.counts["policy.load.calls"] > 0
    assert all(start <= s and e <= end for _, s, e, _ in traced.spans)
