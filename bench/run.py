"""Benchmark of the metasampler package: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 bench/run.py --workload eval_long --seed 0 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):

    meta_train_mid  reference meta_train on the MID toy task, then a 10-seed
                    K=5 evaluation of the learned policy and 30 more cascades
    cascade_large   six K=5 cascades on a 100k/5k toy task loaded from CSV,
                    driven by a fixed untrained policy, then all rows scored
    eval_long       ten K=30 cascades on the MID toy task with the fixed policy

With --trace 0 the workload repeats for about --seconds and the end-to-end
metrics are medians over the repetitions. Timings are in seconds at the
reference host speed (see HostClock); the raw wall times go to the record.
With --trace 1 it runs a warm-up
repetition, a traced one and an untraced one, checks that all give the same
fingerprints, and reports the per-layer metrics of the traced one.
--size tiny shrinks every workload for the smoke test.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A full record, with the
environment and the fingerprints, goes to bench/out/results/. The program is
imported from src/ beside this directory; without it the benchmark exits
with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread: the networks multiply 64x50 matrices, where threads do not
# help, and a single thread keeps runs steady and within the machine's cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 7  # setup_s is the median of this many set-ups
SCORE_REPEATS = 3  # every cascade scores all rows this many times
DATA_SEED_BASE = 11  # seed 0 reproduces the MID toy task of the acceptance suite
BINS = 5
SIGMA = 0.2

MID_TASK = (2000, 200, 0.7)
TINY_TASK = (200, 20, 0.7)
REFERENCE_SAC = {"ensemble_size": 5}
# Workloads without a learned policy still meta-train, on a small budget, so
# every workload reports meta_train_s; it is timed apart from the cascades.
SHORT_SAC = {
    "ensemble_size": 5,
    "gradient_steps": 40,
    "random_steps": 40,
    "batch_size": 32,
    "replay_capacity": 64,
}
TINY_SAC = {
    "ensemble_size": 3,
    "gradient_steps": 6,
    "random_steps": 6,
    "batch_size": 4,
    "replay_capacity": 8,
}


@dataclass(frozen=True)
class Plan:
    """What one repetition of a workload does, before the seed is applied."""

    task: tuple  # (n_majority, n_minority, overlap) of the cascade task
    meta_task: tuple  # the same for the meta-training task
    sac: dict  # SacConfig fields of the meta-training run
    cascades: int  # evaluation split seeds per repetition
    members: int  # cascade size K
    trained_policy: bool  # cascades use the meta-trained sampler, else a fixed untrained one
    scored: int  # test_aucprc is the mean over the first this many cascades
    meta_runs: int  # meta-trainings per repetition, all with the same seed
    draw_share: float  # share of cascade time in the draw over a long majority class


WORKLOADS = {
    "meta_train_mid": {
        # 10 cascades evaluate the policy; 30 more steady the cascade timings
        "full": Plan(MID_TASK, MID_TASK, REFERENCE_SAC, 40, 5, True, 10, 1, 0.0),
        "tiny": Plan(TINY_TASK, TINY_TASK, TINY_SAC, 4, 3, True, 2, 1, 0.0),
    },
    "cascade_large": {
        # six distinct cascades average out how deep the trees of one split grow;
        # the draw was 0.8 of cascade time in a traced run on the reference host
        "full": Plan((100_000, 5_000, 0.5), MID_TASK, SHORT_SAC, 6, 5, False, 6, 4, 0.8),
        "tiny": Plan((2_000, 100, 0.5), TINY_TASK, TINY_SAC, 2, 3, False, 2, 2, 0.8),
    },
    "eval_long": {
        "full": Plan(MID_TASK, MID_TASK, SHORT_SAC, 10, 30, False, 10, 2, 0.0),
        "tiny": Plan(TINY_TASK, TINY_TASK, TINY_SAC, 2, 6, False, 2, 2, 0.0),
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "meta_train_s": "s",
    "cascade_s": "s",
    "predict_rows_per_s": "rows/s",
    "test_aucprc": "ratio",
    "peak_rss_mb": "MB",
}

# criterion 7 of tests/test_acceptance.py: policy score at meta seed 0
CRITERION_7_POLICY_SCORE = 0.8694

# Host-speed adjustment of the timings; see HostClock.
# HostClock.tree_kernel() and draw_kernel() times on the reference host, in its slower state
REFERENCE_TREE_S = 0.0020
REFERENCE_DRAW_S = 0.0038
CHECKPOINT_EVERY_S = 0.5  # calibrate this often inside a long operation


class WrongOutput(Exception):
    """The program returned a result that fails one of the benchmark's checks."""


class HostClock:
    """Times operations in seconds at the reference host speed.

    A shared host may run the same code up to 1.7 times faster or slower for
    seconds to minutes at a time, and kinds of work slow down by different
    amounts. So each timed operation is bracketed by calibrations: runs of
    two fixed kernels of the benchmark's own, modelled on the program's two
    kinds of hot loop. The tree kernel descends a fixed tree level by level,
    as tree predict does; it stands for all interpreter-bound numpy work.
    The draw kernel makes sequential weighted draws over a long weight
    vector, as the draw of the large task does. Each stretch of an operation
    between two calibrations is scaled, kernel by kernel, by the reference
    time over the mean of the two calibrations around it, the draw kernel
    weighing as much as the operation's draw_share. A long operation can
    call checkpoint() at a safe point to calibrate in between; the
    calibration's own time is left out. The raw wall time is kept beside
    the adjusted one.
    """

    def __init__(self, np, with_draw: bool):
        rng = np.random.default_rng(12345)
        self.np = np
        # a complete tree of depth 12 over 10 features, with 8 % of its inner nodes made leaves
        inner = 2**12 - 1
        self.feature = rng.integers(0, 10, size=2 * inner + 1)
        self.feature[inner:] = -1
        self.feature[:inner][rng.random(inner) < 0.08] = -1
        self.threshold = rng.random(2 * inner + 1)
        self.left = np.minimum(2 * np.arange(2 * inner + 1) + 1, 2 * inner)
        self.right = np.minimum(self.left + 1, 2 * inner)
        self.rows = rng.random((2_200, 10))  # as many rows as the MID task
        self.weights = rng.random(95_000)  # as long as the large task's training majority
        self.with_draw = with_draw
        self.last = self.calibrate()
        self.calibrations = [self.last]
        self.raw = self.adjusted = 0.0
        self.draw_share = 0.0
        self.stretch_start = None

    def tree_kernel(self) -> None:
        np = self.np
        for _ in range(2):
            node = np.zeros(len(self.rows), dtype=np.intp)
            active = self.feature[node] != -1
            while active.any():
                rows = np.flatnonzero(active)
                current = node[rows]
                goes_left = self.rows[rows, self.feature[current]] < self.threshold[current]
                node[rows] = np.where(goes_left, self.left[current], self.right[current])
                active[rows] = self.feature[node[rows]] != -1

    def draw_kernel(self) -> None:
        np = self.np
        weights = self.weights.copy()
        for _ in range(5):
            cumulative = np.cumsum(weights)
            j = int(np.searchsorted(cumulative, 0.37 * cumulative[-1], side="right"))
            weights[min(j, len(weights) - 1)] = 0.0

    def calibrate(self) -> tuple:
        """(tree, draw): median wall times of three runs of each kernel; draw is None without it."""
        kernels = [self.tree_kernel] + ([self.draw_kernel] if self.with_draw else [])
        medians = []
        for kernel in kernels:
            times = []
            for _ in range(3):
                start = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - start)
            medians.append(statistics.median(times))
        return tuple(medians) if self.with_draw else (medians[0], None)

    def _close_stretch(self) -> None:
        stretch = time.perf_counter() - self.stretch_start
        calibration = self.calibrate()
        self.calibrations.append(calibration)
        (tree_before, draw_before), (tree_after, draw_after) = self.last, calibration
        scale = (1 - self.draw_share) * REFERENCE_TREE_S / ((tree_before + tree_after) / 2)
        if self.draw_share:
            scale += self.draw_share * REFERENCE_DRAW_S / ((draw_before + draw_after) / 2)
        self.raw += stretch
        self.adjusted += stretch * scale
        self.last = calibration
        self.stretch_start = time.perf_counter()

    def checkpoint(self, *_) -> None:
        """Calibrate now if the current stretch has run CHECKPOINT_EVERY_S."""
        if time.perf_counter() - self.stretch_start >= CHECKPOINT_EVERY_S:
            self._close_stretch()

    def time(self, operation, draw_share: float = 0.0):
        """(result, raw seconds, adjusted seconds) of operation()."""
        self.raw = self.adjusted = 0.0
        self.draw_share = draw_share
        self.stretch_start = time.perf_counter()
        result = operation()
        self._close_stretch()
        self.stretch_start = None
        return result, self.raw, self.adjusted


@dataclass
class Inputs:
    task: object
    meta_split: tuple
    splits: list
    fixed_policy: object


@dataclass
class Samples:
    """Timings at the reference host speed, their raw wall times under `raw`,
    and operation counts, accumulated over repetitions."""

    setup_s: list = field(default_factory=list)
    meta_train_s: list = field(default_factory=list)
    cascade_s: list = field(default_factory=list)
    predict_s: list = field(default_factory=list)
    raw: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def add(self, name: str, raw: float, adjusted: float) -> None:
        getattr(self, name).append(adjusted)
        self.raw.setdefault(name, []).append(raw)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_program():
    """Import numpy and metasampler from the src/ directory of this checkout."""
    sys.path.insert(0, str(SRC_DIR))
    import numpy
    import metasampler

    where = Path(metasampler.__file__).resolve()
    if SRC_DIR.resolve() not in where.parents:
        raise ImportError(f"metasampler was imported from {where}, not from {SRC_DIR}")
    return numpy, metasampler


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC_DIR / "metasampler").rglob("*.py")):
        digest.update(path.relative_to(SRC_DIR).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def oracle_aucprc(np, scores, labels) -> float:
    """Average precision counted threshold by threshold with searchsorted."""
    thresholds = np.unique(scores)[::-1]
    positives = np.sort(scores[labels == 1])
    everything = np.sort(scores)
    tp = len(positives) - np.searchsorted(positives, thresholds, side="left")
    pp = len(everything) - np.searchsorted(everything, thresholds, side="left")
    recall = tp / len(positives)
    return float(np.sum(np.diff(recall, prepend=0.0) * (tp / pp)))


def check_cascades(np, ms, plan: Plan, outcomes) -> None:
    """Checks each cascade of a repetition, outside any timed or traced region."""
    for model, all_scores, test, test_scores, score in outcomes:
        if len(model) != plan.members:
            raise WrongOutput(f"cascade has {len(model)} members, expected {plan.members}")
        if not (np.isfinite(all_scores).all() and all_scores.min() >= 0.0 and all_scores.max() <= 1.0):
            raise WrongOutput("ensemble scores are not probabilities")
        mean = sum(member.predict_proba(test.features) for member in model.members) / len(model)
        if not np.allclose(test_scores, mean, rtol=0.0, atol=1e-12):
            raise WrongOutput("ensemble score is not the mean of its members")
        if not math.isclose(score, oracle_aucprc(np, test_scores, test.labels), abs_tol=1e-9):
            raise WrongOutput(f"aucprc {score} disagrees with the threshold-count oracle")
        prevalence = test.minority_count / len(test)
        if not score > prevalence:
            raise WrongOutput(f"test AUCPRC {score:.4f} is no better than prevalence {prevalence:.4f}")


def write_inputs(ms, plan: Plan, args) -> dict:
    """Writes the task CSVs for this seed (outside timing); returns their paths."""

    def write(role, shape):
        n_majority, n_minority, overlap = shape
        spec = ms.ToySpec(n_majority, n_minority, overlap, seed=DATA_SEED_BASE + args.seed)
        path = OUT_DIR / f"{args.workload}-{args.size}-seed{args.seed}-{role}.csv"
        ms.save_csv(ms.make_toy(spec), path)
        return path

    task = write("task", plan.task)
    meta = task if plan.meta_task == plan.task else write("meta", plan.meta_task)
    return {"task": task, "meta": meta}


def split_seeds(plan: Plan, seed: int):
    return range(plan.cascades * seed, plan.cascades * (seed + 1))


def set_up(ms, plan: Plan, paths: dict, seed: int) -> Inputs:
    """CSV load, splits and fixed-policy construction: the part setup_s times."""
    task = ms.load_csv(paths["task"])
    meta_task = task if paths["meta"] == paths["task"] else ms.load_csv(paths["meta"])
    train, valid, _ = ms.stratified_split(meta_task, ms.SplitSpec(), seed)
    splits = [ms.stratified_split(task, ms.SplitSpec(), s) for s in split_seeds(plan, seed)]
    fixed = None if plan.trained_policy else ms.random_sampler(BINS, SIGMA, seed)
    return Inputs(task=task, meta_split=(train, valid), splits=splits, fixed_policy=fixed)


def run_repetition(np, ms, plan: Plan, inputs: Inputs, seed: int, samples: Samples, clock: HostClock):
    """Meta-train, then build and score every cascade.

    Returns the fingerprints, the per-seed test AUCPRCs and, per cascade, what
    check_cascades needs.
    """
    documents = set()
    for _ in range(plan.meta_runs):
        samples.attempted += 1
        sampler, *times = clock.time(
            lambda: ms.meta_train(
                [inputs.meta_split], ms.SacConfig(**plan.sac), seed=seed, on_step=clock.checkpoint
            )
        )
        samples.add("meta_train_s", *times)
        documents.add(json.dumps(ms.sac.sampler_to_document(sampler), sort_keys=True).encode())
    if len(documents) > 1:
        raise WrongOutput("meta-training twice with the same seed gave different samplers")
    (document,) = documents

    policy = sampler if plan.trained_policy else inputs.fixed_policy
    scores, outcomes = [], []
    for s, (train, valid, test) in zip(split_seeds(plan, seed), inputs.splits):
        # the same two streams the CLI's policy mode takes from the evaluation seed
        subset_ss, action_ss = np.random.SeedSequence(s).spawn(2)
        samples.attempted += 1
        (model, _), *times = clock.time(
            lambda: ms.train_ensemble(
                train,
                valid,
                ms.PolicyActionSource(policy, seed=action_ss),
                sigma=policy.sigma,
                bins=policy.bins,
                n_members=plan.members,
                seed=subset_ss,
                on_step=clock.checkpoint,
            ),
            draw_share=plan.draw_share,
        )
        samples.add("cascade_s", *times)
        for _ in range(SCORE_REPEATS):
            all_scores, *times = clock.time(lambda: model.predict_proba(inputs.task.features))
            samples.add("predict_s", *times)
        test_scores = model.predict_proba(test.features)
        scores.append(ms.aucprc(test_scores, test.labels))
        outcomes.append((model, all_scores, test, test_scores, scores[-1]))
    fingerprint = {
        "sampler_sha256": sha256(document),
        "scores_sha256": sha256(np.asarray(scores, dtype=np.float64).tobytes()),
    }
    return fingerprint, scores, outcomes


def tail(samples):
    """(label, value) of the highest percentile with at least ten samples above it, else the max."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return "max", ordered[-1]
    q = 100 * (n - 10) // n
    return f"p{q}", ordered[math.ceil(q * n / 100) - 1]


def end_to_end(inputs: Inputs, samples: Samples, scored) -> tuple:
    """(metrics, report): the result metrics and a per-metric summary with tails."""
    rows = len(inputs.task)
    report = {}
    for name in ("setup_s", "meta_train_s", "cascade_s"):
        values = getattr(samples, name)
        label, value = tail(values)
        report[name] = {
            "median": statistics.median(values),
            label: value,
            "n": len(values),
            "raw median": statistics.median(samples.raw[name]),
        }
    label, slow = tail(samples.predict_s)
    report["predict_rows_per_s"] = {
        "median": rows / statistics.median(samples.predict_s),
        f"at {label} time": rows / slow,
        "n": len(samples.predict_s),
        "rows": rows,
        "raw median": rows / statistics.median(samples.raw["predict_s"]),
    }
    report["test_aucprc"] = {"cascades": len(scored)}
    values = {name: entry["median"] for name, entry in report.items() if "median" in entry}
    values["test_aucprc"] = statistics.fmean(scored)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
    }
    return metrics, report


def compare_with_earlier_runs(key: str, fingerprint: dict) -> bool:
    """True unless an earlier run of the same code and seed left other fingerprints."""
    path = OUT_DIR / "fingerprints.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return known[key] == fingerprint
    known[key] = fingerprint
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def measure(np, ms, plan, paths, args, samples):
    """Untraced: setup_s repeated, then whole repetitions for about --seconds."""
    clock = HostClock(np, with_draw=plan.draw_share > 0)
    for _ in range(SETUP_REPEATS):
        inputs, *times = clock.time(lambda: set_up(ms, plan, paths, args.seed))
        samples.add("setup_s", *times)
    fingerprints = []
    start = time.perf_counter()
    while True:
        fingerprint, scores, outcomes = run_repetition(np, ms, plan, inputs, args.seed, samples, clock)
        fingerprints.append(fingerprint)
        check_cascades(np, ms, plan, outcomes)
        elapsed = time.perf_counter() - start
        # stop unless one more repetition of average length still fits
        if elapsed * (len(fingerprints) + 1) / len(fingerprints) > args.seconds:
            break
    metrics, report = end_to_end(inputs, samples, scores[: plan.scored])
    kernels = zip(("tree", "draw"), (REFERENCE_TREE_S, REFERENCE_DRAW_S), zip(*clock.calibrations))
    for kernel, reference, times in kernels:
        if None not in times:
            q1, median, q3 = statistics.quantiles(times, n=4)
            report[f"calibration.{kernel}_s"] = {
                "reference": reference, "median": median, "q1": q1, "q3": q3, "n": len(times)
            }
    return fingerprints, scores, metrics, report


def measure_traced(np, ms, plan, paths, args, samples):
    """Three repetitions, each with its own set-up: a warm-up, a traced one and an untraced one.

    The overhead compares the traced repetition with the untraced one after
    it, so that neither pays the first repetition's warm-up.
    """
    import spans

    clock = HostClock(np, with_draw=plan.draw_share > 0)

    def repetition():
        start = time.perf_counter()
        inputs = set_up(ms, plan, paths, args.seed)
        fingerprint, scores, outcomes = run_repetition(np, ms, plan, inputs, args.seed, samples, clock)
        return fingerprint, scores, outcomes, time.perf_counter() - start

    fingerprints = []
    for traced in (False, True, False):
        if traced:
            with spans.traced() as tracer:
                fingerprint, scores, outcomes, traced_s = repetition()
        else:
            fingerprint, scores, outcomes, untraced_s = repetition()
        check_cascades(np, ms, plan, outcomes)
        fingerprints.append(fingerprint)
    metrics = spans.layer_metrics(tracer)
    metrics["trace.untraced_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    return fingerprints, scores, metrics, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        np, ms = load_program()
    except ImportError as exc:
        print(f"bench: cannot load the program from {SRC_DIR}: {exc}", file=sys.stderr)
        return 2

    plan = WORKLOADS[args.workload][args.size]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(np),
    }
    samples = Samples()
    problems = []
    fingerprints, metrics, report = [], {}, {}
    paths = write_inputs(ms, plan, args)
    try:
        measured = measure_traced if args.trace else measure
        fingerprints, scores, metrics, report = measured(np, ms, plan, paths, args, samples)
    except WrongOutput as exc:
        problems.append(str(exc))
    except Exception as exc:  # a failed operation is reported, not raised
        samples.failed += 1
        problems.append(f"operation failed: {exc!r}")
        traceback.print_exc()
    finally:
        for path in set(paths.values()):
            path.unlink(missing_ok=True)

    if fingerprints:
        first = fingerprints[0]
        if any(fp != first for fp in fingerprints[1:]):
            problems.append("repetitions of the same seed gave different fingerprints")
        plan_digest = sha256(repr(plan).encode())[:16]
        key = f"{args.workload}|{args.size}|seed{args.seed}|{plan_digest}|{record['environment']['source_sha256']}"
        if not compare_with_earlier_runs(key, first):
            problems.append("fingerprints differ from an earlier run of the same code and seed")
        record.update(fingerprints=first, repetitions=len(fingerprints), scores=scores)
        if args.workload == "meta_train_mid" and args.size == "full" and args.seed == 0:
            measured_score = statistics.fmean(scores[: plan.scored])
            record["criterion_7_policy_score"] = {
                "expected": CRITERION_7_POLICY_SCORE,
                "measured": measured_score,
                "match": round(measured_score, 4) == CRITERION_7_POLICY_SCORE,
            }

    correct = not problems
    result = {
        "correct": correct,
        "attempted": max(samples.attempted, 1),
        "failed": samples.failed,
        "metrics": metrics,
    }
    record.update(problems=problems, end_to_end=report, samples=asdict(samples), result=result)
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    record_path = results_dir / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} ({args.size}): {len(fingerprints)} repetition(s)")
    for name, entry in metrics.items():
        extra = ", ".join(f"{k} {v:.6g}" for k, v in report.get(name, {}).items())
        print(f"  {name:<32} {entry['value']:.6g} {entry['unit']}" + (f"  ({extra})" if extra else ""))
    if fingerprints:
        print(f"  fingerprints: sampler {first['sampler_sha256'][:16]}, scores {first['scores_sha256'][:16]}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
