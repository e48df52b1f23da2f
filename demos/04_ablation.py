"""
Ablation from the command line
==============================

Drives the CLI end to end: generate a task, then run the three-way ablation
(learned policy, random policy, random sampling) with reduced training
budgets. Outputs land in demos/out/ablation.
"""
import csv
import os
import pathlib

from metasampler.cli import main

# relative paths, so the result files' config rows read the same in any checkout
os.chdir(pathlib.Path(__file__).parent)
out = pathlib.Path("out") / "ablation"
out.mkdir(parents=True, exist_ok=True)
task = out / "task.csv"

rc = main([
    "generate-toy", "--majority", "1500", "--minority", "150",
    "--overlap", "0.7", "--seed", "11", "--out", str(task),
])
assert rc == 0

# The ablation subcommand meta-trains its own sampler on the task's training
# split, then scores all three modes on the same evaluation seeds. Budgets
# here are a fraction of the defaults to keep the demo quick.
rc = main([
    "ablation", str(task),
    "--seed", "0,1,2,3,4,5,6",
    "--meta-seed", "0",
    "--k", "5",
    "--gradient-steps", "600",
    "--random-steps", "200",
    "--batch-size", "32",
    "--replay-capacity", "600",
    "--out", str(out),
])
assert rc == 0

print()
with open(out / "ablation_summary.csv", encoding="utf-8") as f:
    rows = [r for r in csv.reader(f) if not r[0].startswith("#")]
header, body = rows[0], rows[1:]
print("  ".join(f"{h:>16}" for h in header))
for row in body:
    print("  ".join(f"{v:>16}" for v in row))
