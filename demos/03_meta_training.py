"""
Meta-training the sampler
=========================

Runs a shortened actor-critic loop on one small task, watches the episode
rewards, then compares the learned policy against random sampling on fresh
evaluation seeds. Budgets are cut well below the defaults so this finishes
in under a minute; expect noisier numbers than a full run.
"""
import numpy as np

from metasampler import (
    PolicyActionSource,
    SacConfig,
    SplitSpec,
    ToySpec,
    aucprc,
    make_toy,
    meta_train,
    stratified_split,
    train_ensemble,
    train_random_ensemble,
)

ds = make_toy(ToySpec(800, 80, overlap=0.7, seed=11))
train, valid, test = stratified_split(ds, SplitSpec(), seed=0)

config = SacConfig(
    ensemble_size=5,
    gradient_steps=200,
    random_steps=60,
    batch_size=32,
    replay_capacity=400,
)

# meta_train interleaves episodes (each a full cascade build on the task)
# with gradient updates once the replay warms up. on_step lets us watch the
# per-member rewards stream in.
episode_rewards = {}

def watch(episode, step_in_episode, task_index, step):
    episode_rewards.setdefault(episode, 0.0)
    episode_rewards[episode] += step.reward

sampler = meta_train([(train, valid)], config, seed=0, on_step=watch)

print("episode totals (change in valid AUCPRC across the cascade):")
for episode in sorted(episode_rewards):
    if episode % 5 == 0 or episode == max(episode_rewards):
        print(f"  episode {episode:3d}: {episode_rewards[episode]:+.4f}")

# Evaluation: build one cascade per seed with the trained policy choosing
# mu at every step, against the uniform-subset baseline on the same seeds.
policy_scores, random_scores = [], []
for seed in range(5):
    # the policy reads histograms of the sampler's bins and acts through its sigma
    source = PolicyActionSource(sampler, seed=seed)
    model, _ = train_ensemble(
        train, valid, source, sigma=sampler.sigma, bins=sampler.bins,
        n_members=config.ensemble_size, seed=seed,
    )
    policy_scores.append(aucprc(model.predict_proba(test.features), test.labels))
    model = train_random_ensemble(
        train, valid, n_members=config.ensemble_size, seed=seed
    )
    random_scores.append(aucprc(model.predict_proba(test.features), test.labels))

print()
print(f"policy sampling : {np.mean(policy_scores):.4f} +- {np.std(policy_scores):.4f}")
print(f"random sampling : {np.mean(random_scores):.4f} +- {np.std(random_scores):.4f}")
