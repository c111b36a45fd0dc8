"""hindpo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload toy_demo --seed 1 --seconds 30 --trace 0

Run from the repository root: the benchmark imports hindpo from ``src/``
and drives it through ``hindpo.cli.main`` and the public module functions,
in this one process, on one thread pinned to one CPU. Passes of the
workload repeat, each starting after the previous one ended, until
``--seconds`` have been measured (at least ``MIN_PASSES``). Every pass
writes its ``--out`` into a scratch directory under ``.perfbench/`` that
holds no timings, and is checked (see ``workloads.py``) before it is
deleted.

``--trace 0`` reports the end-to-end metrics, untraced: ``setup_s`` (a
fresh interpreter's ``import hindpo.cli``, sampled between passes) and
``wall_ref_s`` (a pass's wall time), both at the reference machine speed
(see ``speed.py``; the raw wall times are printed on ``info`` lines), and
``peak_rss_mb``. ``--trace 1`` runs half the time untraced and half
traced, with spans around the calls into each hindpo module (see
``layers.py``), and reports the per-layer metrics; the spans of the last
traced pass are written to ``.perfbench/traces/``.

Stdout: an ``env`` line (machine and code version), ``info`` lines, one
line per metric with its sample count, then the result as one JSON
object on the last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


# One thread: the run is pinned to one CPU, and BLAS fixes its thread
# count when numpy loads, which importing speed does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 7
IMPORT_PROFILE_SAMPLES = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def code_version(root: Path) -> tuple[str | None, str]:
    """(git commit of ``root`` or None, sha256 over the hindpo sources)."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "hindpo").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == root.resolve():
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return commit, h.hexdigest()


def environment(root: Path) -> dict:
    import numpy
    import scipy

    import hindpo

    commit, source = code_version(root)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,
        "hindpo": hindpo.__version__,
        "git_commit": commit,
        "src_sha256": source,
    }


def fresh_import(root: Path, profile: bool) -> subprocess.CompletedProcess:
    """A new interpreter that runs ``import hindpo.cli``, optionally with -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import hindpo.cli"
    argv = [sys.executable, "-c", code]
    if profile:
        argv = [sys.executable, "-X", "importtime", "-c", "import sys; print('perfbench-mark', file=sys.stderr); " + code]
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError("import hindpo.cli failed: %s" % done.stderr.strip()[-500:])
    return done


def import_seconds(root: Path) -> tuple[float, float]:
    """Wall time of one fresh ``import hindpo.cli``, the set-up every CLI
    call pays, and that time at the reference machine speed; the child
    inherits this process's CPU, where the speed is read."""
    before = speed.kernel_seconds()
    started = time.perf_counter()
    fresh_import(root, profile=False)
    wall = time.perf_counter() - started
    return wall, speed.bracketed_at_reference(wall, before, speed.kernel_seconds())


class Runner:
    """Runs passes of one workload and checks each against the first."""

    def __init__(self, workload: workloads.Workload, seed: int, inputs: Path, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.scratch = scratch
        self.calls = workloads.calls(workload)
        self.checks = workloads.checks(workload, inputs)
        self.reference: dict[str, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.quality: tuple[float, float] | None = None
        self.passes = 0

    def execute(self, sampler: speed.Sampler | None = None) -> tuple[Path, dict, float, float]:
        """The hindpo calls of one pass; returns (out dir, results, start, end).
        ``sampler`` samples the machine's speed while the calls run."""
        self.passes += 1
        out = self.scratch / ("pass-%03d" % self.passes)
        results = {}
        with sampler or contextlib.nullcontext():
            start = time.perf_counter()
            for name, call in self.calls:
                try:
                    results[name] = call(self.seed, self.inputs, out)
                except Exception as exc:  # a failed operation is counted by its check
                    self.problems.append("%s: %s: %s" % (name, type(exc).__name__, exc))
            end = time.perf_counter()
        return out, results, start, end

    def check(self, out: Path, results: dict) -> None:
        """Check each operation of the pass written to ``out``, then delete it."""
        for name, check in self.checks:
            self.attempted += 1
            try:
                problems, fingerprint = check(out, results)
            except Exception as exc:  # missing or unreadable output
                problems, fingerprint = ["%s: %s: %s" % (name, type(exc).__name__, exc)], None
            if fingerprint != self.reference.setdefault(name, fingerprint):
                problems.append("%s: outputs differ from the first pass with this seed" % name)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        if self.quality is None:
            try:
                self.quality = workloads.quality(self.workload, out)
            except Exception as exc:  # reported; the failed checks already count it
                self.problems.append("quality: %s: %s" % (type(exc).__name__, exc))
                self.quality = (0.0, 0.0)
        shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, sampler: speed.Sampler | None = None) -> float:
        """One untraced pass and its checks; returns its wall seconds."""
        out, results, start, end = self.execute(sampler)
        self.check(out, results)
        return end - start

    def traced_pass(self) -> tuple[Recorder, float, float]:
        """One pass with spans around the calls into hindpo; returns (recorder,
        start, end). The hooks come off before the checks, so the spans and
        counts are hindpo's own."""
        recorder = Recorder()
        uninstall = layers.install(recorder)
        try:
            out, results, start, end = self.execute()
        finally:
            uninstall()
        self.check(out, results)
        return recorder, start, end

    def walls(self, seconds: float, sampler: speed.Sampler | None = None):
        """Yield pass wall times. Passes start while the next one is expected
        to end within ``seconds`` of the first (always at least MIN_PASSES);
        time the caller spends between passes counts too."""
        began = time.perf_counter()
        walls: list[float] = []
        while len(walls) < MIN_PASSES or time.perf_counter() - began + statistics.median(walls) <= seconds:
            walls.append(self.run_pass(sampler))
            yield walls[-1]


def emit(metrics: dict[str, tuple[float, str, int]], runner: Runner) -> None:
    for name, (value, unit, samples) in metrics.items():
        print("metric %-40s %14.6g %-6s (median of %d)" % (name, value, unit, samples))
    print(
        "operations attempted %d failed %d fail_frac %g over %d passes"
        % (runner.attempted, runner.failed, runner.failed / max(runner.attempted, 1), runner.passes)
    )
    for problem in runner.problems[:20]:
        print("problem %s" % problem)
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))


def end_to_end(root: Path, runner: Runner, seconds: float) -> dict:
    # Set-up samples are spread between the passes, so that a slow spell
    # of the (shared) machine does not fall on all of them.
    setup = [import_seconds(root)]
    walls, at_reference = [], []
    sampler = speed.Sampler()
    for wall in runner.walls(seconds, sampler):
        walls.append(wall)
        at_reference.append(sampler.at_reference(wall))
        if len(setup) < SETUP_SAMPLES:
            setup.append(import_seconds(root))
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_seconds(root))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("info wall_s %r s (median of %d, at the machine's speed of the moment)" % (statistics.median(walls), len(walls)))
    print("info setup_wall_s %r s (median of %d, at the machine's speed of the moment)" % (statistics.median(w for w, _ in setup), len(setup)))
    if runner.workload.modes:
        print("info heldout_rouge_l %r final_train_loss %r (deterministic)" % runner.quality)
    return {
        "setup_s": (statistics.median(r for _, r in setup), "s", len(setup)),
        "wall_ref_s": (statistics.median(at_reference), "s", len(at_reference)),
        "peak_rss_mb": (peak_mb, "MB", 1),
    }


def per_layer(root: Path, runner: Runner, seconds: float, traces: Path) -> dict:
    profiles = [layers.import_profile(fresh_import(root, profile=True).stderr) for _ in range(IMPORT_PROFILE_SAMPLES)]
    untraced = list(runner.walls(seconds / 2))
    samples, traced = [], []
    while len(samples) < MIN_PASSES and sum(traced) < seconds / 2 or not samples:
        recorder, start, end = runner.traced_pass()
        samples.append(layers.pass_metrics(recorder, start, end))
        traced.append(end - start)
    recorder.write(traces / ("%s-seed%d.json" % (runner.workload.name, runner.seed)))
    values = layers.median_metrics(samples)
    rouge, loss = runner.quality or (0.0, 0.0)
    values.update(
        {
            "cli.import.s": statistics.median(p[0] for p in profiles),
            "cli.import.third_party_s": statistics.median(p[1] for p in profiles),
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
            "heldout_rouge_l": rouge,
            "final_train_loss": loss,
        }
    )
    counts = {"cli.import.s": len(profiles), "cli.import.third_party_s": len(profiles)}
    return {name: (values[name], unit, counts.get(name, len(samples))) for name, unit, _, _ in layers.CATALOGUE}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hindpo" / "cli.py").is_file():
        print("perfbench: run from the repository root; %s/src/hindpo is missing" % root, file=sys.stderr)
        return 2
    # One CPU for the whole run: the speed samples then describe the CPU
    # the pass runs on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(root / "src"))
    import hindpo.cli

    if Path(hindpo.cli.__file__).resolve().parent != (root / "src" / "hindpo").resolve():
        print("perfbench: imported hindpo from %s, not from src/" % hindpo.cli.__file__, file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r; choose from %s" % (args.workload, sorted(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    base = root / ".perfbench"
    work = base / ("%s-seed%d-%d" % (workload.name, args.seed, os.getpid()))
    try:
        inputs = workloads.prepare(workload, args.seed, work / "inputs")
        runner = Runner(workload, args.seed, inputs, work / "out")
        print("env %s" % json.dumps(dict(environment(root), cpu=cpu), sort_keys=True))
        if args.trace:
            metrics = per_layer(root, runner, args.seconds, base / "traces")
        else:
            metrics = end_to_end(root, runner, args.seconds)
        emit(metrics, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
