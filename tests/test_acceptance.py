"""End-to-end acceptance suite.

One test per shipped guarantee, ordered from arithmetic oracles up to the
desk-scale experiments. Each test prints a single PASS line with its measured
numbers, so `pytest -v -s tests/test_acceptance.py` doubles as the acceptance
report. The experiment tests (7-9) run sac.experiment_point, which trains real
samplers at the full reference budget: they are the suite's slowest tests.
"""
import time

import numpy as np
import pytest

from metasampler import (
    SacConfig,
    SplitSpec,
    ToySpec,
    aucprc,
    make_toy,
    meta_train,
    score_arms,
    stratified_split,
)
from metasampler.cli import main
from metasampler.ensemble import EnsembleStep
from metasampler.neural import init_mlp, mlp_backward, mlp_forward
from metasampler.sac import (
    HIDDEN_WIDTH,
    Batch,
    ReplayMemory,
    SacNets,
    SacOptimizers,
    experiment_point,
    policy_loss_and_grads,
    q_loss_and_grads,
    sac_update,
    v_loss_and_grads,
)
from metasampler.sampling import meta_sample, state_from_errors
from conftest import (
    FixedModel,
    brute_average_precision,
    brute_histogram,
    fd_network_gradients,
    fd_param_gradients,
    forward_only,
    make_dataset,
    max_relative_error,
    policy_loss,
    q_targets,
    regression_loss,
)

MID_TOY = ToySpec(n_majority=2000, n_minority=200, overlap=0.7, seed=11)
TASK_A = ToySpec(n_majority=2000, n_minority=200, overlap=0.3, seed=11)
TASK_B = ToySpec(n_majority=2000, n_minority=100, overlap=0.6, seed=23)
SPLIT = SplitSpec()
META_SEED = 0
EVAL_SEEDS = tuple(range(10))
K = 5
NOISE_RATIOS = (0.0, 0.1, 0.25, 0.4)

# policy-network capacity grid exercised by the gradient checks
CHECKED_LAYOUTS = (
    [10, 50, 1],
    [10, 100, 1],
    [10, 200, 1],
    [10, 25, 25, 1],
    [10, 50, 50, 1],
    [10, 100, 100, 1],
    [10, 10, 10, 10, 1],
    [10, 25, 25, 25, 1],
    [10, 50, 50, 50, 1],
)


def point(ds, modes, noise_ratio=0.0):
    """The sampler of a reference-budget experiment point on `ds`, and its scores as arrays."""
    sampler, scores = experiment_point(
        ds, SPLIT, META_SEED, EVAL_SEEDS, modes, SacConfig(ensemble_size=K), noise_ratio
    )
    return sampler, {mode: np.asarray(arm_scores) for mode, arm_scores in scores.items()}


def mode_scores(ds, arms):
    """Test-split AUCPRC per evaluation seed of each (label, mode, sampler) arm, as arrays.

    For a sampler scored on a task it was not meta-trained on.
    """
    scores = score_arms(ds, SPLIT, EVAL_SEEDS, arms, n_members=K)
    return {label: np.asarray(arm_scores) for label, arm_scores in scores.items()}


@pytest.fixture(scope="module")
def mid_dataset():
    return make_toy(MID_TOY)


@pytest.fixture(scope="module")
def task_a():
    return make_toy(TASK_A)


@pytest.fixture(scope="module")
def task_b():
    return make_toy(TASK_B)


@pytest.fixture(scope="module")
def mid_scores(mid_dataset):
    """Clean-task sampler plus per-mode scores, with the wall time it all took."""
    t0 = time.perf_counter()
    _, scores = point(mid_dataset, ("policy", "random-policy", "random-sampling"))
    return scores, time.perf_counter() - t0


def test_criterion_01_histogram_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    edges = np.array([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0])
    for _ in range(10_000):
        errors = rng.random(int(rng.integers(1, 21)))
        on_edge = rng.random(errors.size) < 0.1
        errors[on_edge] = rng.choice(edges, size=int(on_edge.sum()))
        for bins in (2, 5, 10):
            # the reversed copy is the validation half: both halves bin to the same histogram
            state = state_from_errors(np.concatenate((errors, errors[::-1])), errors.size, bins)
            expected = brute_histogram(errors, bins)
            assert np.array_equal(state, expected + expected)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE PASS: criterion 1: 10000 vectors x bins (2,5,10) exact, {elapsed:.1f}s")


def relu_kink_margin(net, x):
    """Smallest |pre-activation| over the relu layers of one forward pass.

    Finite differences are an oracle only away from the relu kinks: a unit
    whose pre-activation sits within the perturbation's reach of zero flips
    its mask mid-difference and the comparison is meaningless there. Cases
    are resampled until this margin far exceeds what h can move.
    """
    _, acts = mlp_forward(net, x)
    # every layer but the linear head is a relu; its pre-activation is a @ w + b
    return min(
        float(np.abs(a @ w + b).min())
        for a, w, b in zip(acts[:-2], net.weights[:-1], net.biases[:-1])
    )


def assert_same_loss(library, oracle):
    assert abs(library - oracle) <= 1e-12 * abs(library), (library, oracle)


def test_criterion_02_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)

    worst_net = 0.0
    oracle_gap = 0.0
    for case in range(100):
        sizes = CHECKED_LAYOUTS[case % len(CHECKED_LAYOUTS)]
        while True:
            net = init_mlp(sizes, seed=rng)
            x = rng.standard_normal((2, sizes[0]))
            if relu_kink_margin(net, x) > 1e-3:
                break
        y = rng.standard_normal((2, sizes[-1]))

        def losses(out, y=y):
            return 0.5 * np.sum((out - y) ** 2, axis=(-2, -1))

        def loss(net=net, x=x):
            return float(losses(forward_only(net, x)))

        out, acts = mlp_forward(net, x)
        assert_same_loss(0.5 * float(np.sum((out - y) ** 2)), loss())
        analytic = mlp_backward(net, acts, out - y)
        numeric = fd_network_gradients(net, x, losses)
        if case < len(CHECKED_LAYOUTS):  # the first case of each layout, per entry as well
            (per_entry,) = fd_param_gradients(loss, [net.params])
            oracle_gap = max(oracle_gap, float(np.abs(numeric - per_entry).max()))
        # central differences carry ~1e-10 absolute roundoff (ulp(loss)/2h),
        # so entries below noise/rtol = 1e-6 cannot be certified to 1e-4
        # relative and are skipped; every meaningful gradient is far larger
        worst_net = max(worst_net, max_relative_error([analytic], [numeric], floor=1e-6))
    assert worst_net < 1e-4
    assert oracle_gap <= 1e-9

    worst_loss = 0.0
    for _ in range(12):
        while True:
            policy = init_mlp([10, HIDDEN_WIDTH, 2], rng)
            q = init_mlp([11, HIDDEN_WIDTH, HIDDEN_WIDTH, 1], rng)
            v = init_mlp([10, HIDDEN_WIDTH, HIDDEN_WIDTH, 1], rng)
            batch = Batch(
                states=rng.random((8, 10)),
                actions=rng.random(8),
                rewards=0.1 * rng.standard_normal(8),
                next_states=rng.random((8, 10)),
                terminals=(rng.random(8) < 0.5).astype(np.float64),
            )
            eps = rng.standard_normal(8)
            heads, _ = mlp_forward(policy, batch.states)
            _, _, aux = policy_loss_and_grads(policy, q, batch.states, eps, alpha=0.1)
            clear = min(
                relu_kink_margin(q, np.column_stack((batch.states, batch.actions))),
                relu_kink_margin(v, batch.states),
                relu_kink_margin(policy, batch.states),
                # the policy's fresh actions feed the critic, so its kinks
                # along that composed path matter for the policy loss too
                relu_kink_margin(q, np.column_stack((batch.states, aux["actions"]))),
                # log-std clamp boundaries are kinks of the same kind
                float(np.abs(heads[:, 1] - 2.0).min()),
                float(np.abs(heads[:, 1] + 20.0).min()),
            )
            if clear > 2e-4:
                break
        target_v = v.copy()
        v_targets = rng.standard_normal(8)

        # each closure evaluates its loss through the forward-only oracle, which
        # must equal the library's loss at the unperturbed point
        q_in = np.column_stack((batch.states, batch.actions))
        targets = q_targets(target_v, batch, gamma=0.99)  # constant in q
        library_loss, analytic = q_loss_and_grads(q, target_v, batch, gamma=0.99)
        assert_same_loss(library_loss, regression_loss(q, q_in, targets))
        numeric = fd_param_gradients(lambda q=q: regression_loss(q, q_in, targets), [q.params])
        worst_loss = max(worst_loss, max_relative_error([analytic], numeric))

        library_loss, analytic = v_loss_and_grads(v, batch.states, v_targets)
        assert_same_loss(library_loss, regression_loss(v, batch.states, v_targets))
        numeric = fd_param_gradients(
            lambda v=v: regression_loss(v, batch.states, v_targets), [v.params]
        )
        worst_loss = max(worst_loss, max_relative_error([analytic], numeric))

        library_loss, analytic, _ = policy_loss_and_grads(policy, q, batch.states, eps, alpha=0.1)
        assert_same_loss(library_loss, policy_loss(policy, q, batch.states, eps, alpha=0.1))
        numeric = fd_param_gradients(
            lambda policy=policy: policy_loss(policy, q, batch.states, eps, alpha=0.1),
            [policy.params],
        )
        worst_loss = max(worst_loss, max_relative_error([analytic], numeric))
    assert worst_loss < 1e-3

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        "ACCEPTANCE PASS: criterion 2: 100 network cases"
        f" (worst {worst_net:.2e}, batched within {oracle_gap:.1e} of per-entry)"
        f" + 36 loss cases (worst {worst_loss:.2e}), {elapsed:.1f}s"
    )


def test_criterion_03_aucprc_matches_brute_force():
    rng = np.random.default_rng(303)
    worst = 0.0
    for case in range(1000):
        n = int(rng.integers(2, 31))
        labels = rng.integers(0, 2, size=n)
        while labels.min() == labels.max():
            labels = rng.integers(0, 2, size=n)
        if case % 2 == 0:
            scores = rng.random(n)
        else:
            scores = rng.integers(0, 4, size=n) / 3.0  # heavy ties
        worst = max(worst, abs(aucprc(scores, labels) - brute_average_precision(scores, labels)))
    assert worst <= 1e-12

    for n_pos, n_neg in ((1, 9), (5, 5), (3, 27)):
        labels = np.array([1] * n_pos + [0] * n_neg)
        perfect = np.concatenate([np.linspace(0.6, 1.0, n_pos), np.linspace(0.0, 0.4, n_neg)])
        assert aucprc(perfect, labels) == 1.0
        flat = np.full(n_pos + n_neg, 0.5)
        assert aucprc(flat, labels) == n_pos / (n_pos + n_neg)
    print(f"ACCEPTANCE PASS: criterion 3: 1000 instances within 1e-12 (worst {worst:.1e});"
          " perfect and all-equal exact")


def test_criterion_04_meta_sample_always_balanced():
    rng = np.random.default_rng(404)
    violations = 0
    for _ in range(1000):
        n_min = int(rng.integers(2, 13))
        n_maj = int(rng.integers(2, 41))
        n = n_min + n_maj
        features = rng.standard_normal((n, 2))
        labels = np.array([1] * n_min + [0] * n_maj)
        ds = make_dataset(features, labels)
        model = FixedModel(features, rng.random(n))
        out = meta_sample(ds, model, mu=float(rng.random()), sigma=0.2, seed=rng)
        if int((out.labels == 1).sum()) != n_min:
            violations += 1
        elif int((out.labels == 0).sum()) != min(n_min, n_maj):
            violations += 1
    assert violations == 0
    print("ACCEPTANCE PASS: criterion 4: 1000 meta_sample calls, zero balance violations")


def test_criterion_05_episode_rewards_telescope():
    ds = make_toy(ToySpec(n_majority=400, n_minority=40, overlap=0.6, seed=2))
    train, valid, _ = stratified_split(ds, SPLIT, seed=0)
    config = SacConfig(
        ensemble_size=5, gradient_steps=40, random_steps=20,
        batch_size=16, replay_capacity=200,
    )
    episodes = {}
    meta_train(
        [(train, valid)], config, seed=3,
        on_step=lambda ep, step, task, s: episodes.setdefault(ep, []).append(s),
    )
    assert len(episodes) >= 10
    worst = 0.0
    for steps in episodes.values():
        total = sum(s.reward for s in steps)
        worst = max(worst, abs(total - (steps[-1].auc_after - steps[0].auc_before)))
    assert worst <= 1e-12
    print(f"ACCEPTANCE PASS: criterion 5: {len(episodes)} episodes telescope"
          f" (worst {worst:.1e})")


def test_criterion_06_target_update_is_exact_polyak_step():
    config = SacConfig()
    rng = np.random.default_rng(606)
    replay = ReplayMemory(config.replay_capacity)
    for _ in range(config.batch_size + 16):
        replay.push(EnsembleStep(
            state=rng.random(config.state_size),
            action=float(rng.random()),
            auc_before=0.0,
            auc_after=float(0.1 * rng.standard_normal()),
            next_state=rng.random(config.state_size),
            terminal=bool(rng.random() < 0.2),
        ))
    nets = SacNets(
        policy=init_mlp([config.state_size, HIDDEN_WIDTH, 2], rng),
        q=init_mlp([config.state_size + 1, HIDDEN_WIDTH, HIDDEN_WIDTH, 1], rng),
        v=init_mlp([config.state_size, HIDDEN_WIDTH, HIDDEN_WIDTH, 1], rng),
        target_v=None,
    )
    nets.target_v = nets.v.copy()
    optim = SacOptimizers.for_nets(nets, config)
    target_old = nets.target_v.params.copy()
    sac_update(replay, nets, optim, config, rng)
    assert np.array_equal(
        nets.target_v.params, config.tau * nets.v.params + (1.0 - config.tau) * target_old
    )
    print("ACCEPTANCE PASS: criterion 6: target parameters are bit-exact Polyak blends")


def test_criterion_07_learned_policy_beats_baselines(mid_scores):
    scores, seconds = mid_scores
    policy = float(scores["policy"].mean())
    random_policy = float(scores["random-policy"].mean())
    random_sampling = float(scores["random-sampling"].mean())
    assert policy >= random_policy >= random_sampling
    assert policy - random_sampling >= 0.02
    assert seconds <= 900.0
    print(
        f"ACCEPTANCE PASS: criterion 7: policy {policy:.4f} >= random-policy"
        f" {random_policy:.4f} >= random-sampling {random_sampling:.4f},"
        f" gap {policy - random_sampling:+.4f}, {seconds:.0f}s"
    )


def test_criterion_08_noise_robustness(mid_dataset, mid_scores):
    scores0, _ = mid_scores
    means = [float(scores0["policy"].mean())]
    stds = [float(scores0["policy"].std(ddof=1))]
    margins = [means[0] - float(scores0["random-sampling"].mean())]
    assert margins[0] >= 0.0
    for ratio in NOISE_RATIOS[1:]:
        _, scores = point(mid_dataset, ("policy", "random-sampling"), noise_ratio=ratio)
        policy, random_sampling = scores["policy"], scores["random-sampling"]
        margin = float(policy.mean() - random_sampling.mean())
        assert margin >= 0.0, f"policy lost to random sampling at ratio {ratio}"
        means.append(float(policy.mean()))
        stds.append(float(policy.std(ddof=1)))
        margins.append(margin)
    for i in range(len(means) - 1):
        assert means[i + 1] <= means[i] + max(stds[i], stds[i + 1])
    print(
        "ACCEPTANCE PASS: criterion 8: margins "
        + ", ".join(f"{r}:{m:+.4f}" for r, m in zip(NOISE_RATIOS, margins))
        + "; policy means non-increasing within 1 std"
    )


def test_criterion_09_sampler_transfers(task_a, task_b):
    # an arm's scores do not depend on the other arms, so the point's policy
    # arm is the full-task sampler's own score on TASK_A
    sampler_a, scores_a = point(task_a, ("policy",))
    scores_b = mode_scores(
        task_b, [("cross", "policy", sampler_a), ("random-policy", "random-policy", None)]
    )
    cross = float(scores_b["cross"].mean())
    random_policy_b = float(scores_b["random-policy"].mean())
    assert cross >= random_policy_b

    rng = np.random.default_rng(7)
    sub_idx = np.sort(np.concatenate([
        rng.choice(task_a.minority_indices, size=len(task_a.minority_indices) // 10,
                   replace=False),
        rng.choice(task_a.majority_indices, size=len(task_a.majority_indices) // 10,
                   replace=False),
    ]))
    sampler_sub, _ = point(task_a.subset(sub_idx), ())  # scored on TASK_A, not its own task
    full = float(scores_a["policy"].mean())
    sub = float(mode_scores(task_a, [("sub", "policy", sampler_sub)])["sub"].mean())
    assert full - sub <= 0.02
    print(
        f"ACCEPTANCE PASS: criterion 9: cross-task {cross:.4f} >= random-policy"
        f" {random_policy_b:.4f}; sub-task loss {full - sub:+.4f} <= 0.02"
    )


def test_criterion_10_cli_reruns_are_byte_identical(tmp_path):
    tiny = [
        "--gradient-steps", "4", "--random-steps", "4",
        "--batch-size", "4", "--replay-capacity", "32",
    ]

    def run_twice(argv, out_dir):
        assert main(argv) == 0
        files = sorted(p for p in out_dir.rglob("*") if p.is_file())
        assert files
        first = {p: p.read_bytes() for p in files}
        assert main(argv) == 0
        assert sorted(p for p in out_dir.rglob("*") if p.is_file()) == files
        for p, blob in first.items():
            assert p.read_bytes() == blob, f"{p.name} changed between reruns"

    task = tmp_path / "toy" / "task.csv"
    other = tmp_path / "toy2" / "task.csv"
    run_twice([
        "generate-toy", "--majority", "60", "--minority", "12",
        "--overlap", "0.5", "--seed", "3", "--out", str(task),
    ], task.parent)
    run_twice([
        "generate-toy", "--majority", "60", "--minority", "12",
        "--overlap", "0.6", "--seed", "4", "--out", str(other),
    ], other.parent)

    meta_out = tmp_path / "meta"
    run_twice(["meta-train", str(task), "--k", "3", "--out", str(meta_out), *tiny], meta_out)
    sampler = meta_out / "sampler.json"

    train_out = tmp_path / "train"
    run_twice([
        "train", str(task), "--mode", "policy", "--sampler", str(sampler),
        "--k", "3", "--seed", "0,1", "--out", str(train_out),
    ], train_out)

    ablation_out = tmp_path / "ablation"
    run_twice([
        "ablation", str(task), "--k", "3", "--seed", "0,1",
        "--out", str(ablation_out), *tiny,
    ], ablation_out)

    noise_out = tmp_path / "noise"
    run_twice([
        "noise-sweep", str(task), "--k", "3", "--seed", "0,1",
        "--ratios", "0,0.25", "--out", str(noise_out), *tiny,
    ], noise_out)

    transfer_out = tmp_path / "transfer"
    run_twice([
        "transfer", str(other), "--sampler", str(sampler),
        "--k", "3", "--seed", "0,1", "--out", str(transfer_out),
    ], transfer_out)
    print("ACCEPTANCE PASS: criterion 10: all six subcommands rerun byte-identically")
