"""
Cascade ensembles and the sampling action
=========================================

Trains small cascades under different fixed sampling centers and inspects
the per-member trace that meta-training later learns from.
"""
import numpy as np

from metasampler import (
    SplitSpec,
    ToySpec,
    aucprc,
    make_toy,
    stratified_split,
    train_ensemble,
    train_random_ensemble,
)

ds = make_toy(ToySpec(2000, 200, overlap=0.7, seed=11))
train, valid, test = stratified_split(ds, SplitSpec(), seed=0)

# Each new member trains on a balanced subset: every minority row plus an
# equal number of majority rows, drawn with weights from a Gaussian centered
# at the action mu over the current ensemble's errors. mu near 0 prefers
# already-solved majority rows, mu near 1 prefers the hardest ones. The
# action is any function of the current state: here a constant, or a draw.
# The Gaussian's width sigma and the state's histogram bins are SacConfig's
# defaults, 0.2 and 5.
print("fixed sampling centers, 10 members each:")
for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
    model, _ = train_ensemble(
        train, valid, lambda state: mu, sigma=0.2, bins=5, n_members=10, seed=0
    )
    auc = aucprc(model.predict_proba(test.features), test.labels)
    print(f"  mu={mu:.2f}: test AUCPRC {auc:.4f}")

rng = np.random.default_rng(0)
model, _ = train_ensemble(
    train, valid, lambda state: float(rng.random()), sigma=0.2, bins=5, n_members=10, seed=0
)
print(f"  random mu: test AUCPRC "
      f"{aucprc(model.predict_proba(test.features), test.labels):.4f}")

model = train_random_ensemble(train, valid, n_members=10, seed=0)
print(f"  uniform subsets (no error weighting): test AUCPRC "
      f"{aucprc(model.predict_proba(test.features), test.labels):.4f}")

# The trace is the raw material of meta-training: one step per member after
# the first, with the error-histogram state, the action taken, and the change
# in validation AUCPRC as reward. Rewards telescope to the total improvement.
model, steps = train_ensemble(
    train, valid, lambda state: 0.5, sigma=0.2, bins=5, n_members=6, seed=0
)
print()
print("trace under mu=0.5:")
for i, step in enumerate(steps):
    print(
        f"  member {i + 2}: action {step.action:.2f}"
        f" valid AUCPRC {step.auc_before:.4f} -> {step.auc_after:.4f}"
        f" reward {step.reward:+.4f}{'  (terminal)' if step.terminal else ''}"
    )
total = sum(s.reward for s in steps)
print(f"  rewards sum to {total:+.4f}"
      f" = last auc {steps[-1].auc_after:.4f} - first auc {steps[0].auc_before:.4f}")
