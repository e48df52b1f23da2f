"""
Label noise and cross-task transfer
===================================

Two stress tests for a learned sampler, both through the CLI with reduced
budgets. First, how performance degrades as symmetric label flips corrupt
the training split. Second, whether a sampler trained on one task still
helps on a task it never saw. Outputs land in demos/out/robustness.
"""
import csv
import os
import pathlib

from metasampler.cli import main

# relative paths, so the result files' config rows read the same in any checkout
os.chdir(pathlib.Path(__file__).parent)
out = pathlib.Path("out") / "robustness"
out.mkdir(parents=True, exist_ok=True)
task_a = out / "task_a.csv"
task_b = out / "task_b.csv"

SMALL_BUDGET = [
    "--gradient-steps", "600", "--random-steps", "200",
    "--batch-size", "32", "--replay-capacity", "600",
]

for path, overlap, seed in ((task_a, "0.3", "11"), (task_b, "0.6", "23")):
    rc = main([
        "generate-toy", "--majority", "1500", "--minority", "150",
        "--overlap", overlap, "--seed", seed, "--out", str(path),
    ])
    assert rc == 0


def show(path, columns):
    with open(path, encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if not r[0].startswith("#")]
    keep = [rows[0].index(c) for c in columns]
    print("  ".join(f"{rows[0][i]:>16}" for i in keep))
    for row in rows[1:]:
        print("  ".join(f"{row[i]:>16}" for i in keep))


# Noise sweep: at each ratio the training split gets that fraction of its
# minority labels flipped to majority and the same count back the other way,
# then a fresh sampler is meta-trained on the noisy split and scored against
# the random-sampling baseline on the same seeds.
rc = main([
    "noise-sweep", str(task_b),
    "--ratios", "0.0,0.25",
    "--seed", "0,1,2,3,4",
    "--meta-seed", "0",
    "--k", "5",
    *SMALL_BUDGET,
    "--out", str(out),
])
assert rc == 0
print()
show(out / "noise_summary.csv", ["ratio", "mode", "mean_aucprc"])

# Transfer: meta-train on task A only, then apply that sampler to task B
# without retraining. The reference sampler is trained natively on B, so
# delta_vs_reference shows what transferring gave up.
rc = main([
    "meta-train", str(task_a),
    "--seed", "0", "--k", "5", *SMALL_BUDGET,
    "--out", str(out / "sampler_a"),
])
assert rc == 0
rc = main([
    "meta-train", str(task_b),
    "--seed", "0", "--k", "5", *SMALL_BUDGET,
    "--out", str(out / "sampler_b"),
])
assert rc == 0
rc = main([
    "transfer", str(task_b),
    "--sampler", str(out / "sampler_a" / "sampler.json"),
    "--reference-sampler", str(out / "sampler_b" / "sampler.json"),
    "--seed", "0,1,2,3,4",
    "--k", "5",
    "--out", str(out),
])
assert rc == 0
print()
show(
    out / "transfer_summary.csv",
    ["mode", "mean_aucprc", "delta_pct_vs_reference"],
)
