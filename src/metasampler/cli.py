"""Command-line interface for desk-scale experiments.

Subcommands: generate-toy, meta-train, train, ablation, noise-sweep,
transfer. Every command accepts --config pointing at a flat JSON file whose
keys mirror the flag names (underscored); explicit flags win over the file,
the file wins over built-in defaults. Result CSVs open with a comment row
recording the resolved configuration, so identical configs and seeds
reproduce output files byte for byte.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 numerical
failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .dataset import (
    SplitSpec,
    ToySpec,
    inject_flip_noise,
    load_csv,
    make_toy,
    save_csv,
    stratified_split,
)
from .ensemble import ConstantActionSource, train_ensemble, train_random_ensemble
from .errors import ConfigError, DataError, NumericalError
from .learners import DecisionTree, GaussianNaiveBayes
from .metrics import aucprc
from .rng import as_seed_sequence
from .sac import (
    PolicyActionSource,
    SacConfig,
    load_sampler,
    meta_train,
    random_sampler,
    save_sampler,
)

LEARNERS = {"tree": DecisionTree, "gnb": GaussianNaiveBayes}
MODES = ("policy", "random-policy", "random-sampling", "constant")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse_number_list(text, flag, cast):
    if isinstance(text, (list, tuple)):
        values = list(text)
    else:
        values = [piece for piece in str(text).split(",") if piece.strip() != ""]
    if not values:
        raise ConfigError(f"{flag} must list at least one value")
    try:
        return [cast(v) for v in values]
    except (TypeError, ValueError):
        raise ConfigError(f"{flag} has a non-numeric entry: {text!r}") from None


def _parse_split(text) -> SplitSpec:
    parts = _parse_number_list(text, "--split", float)
    if len(parts) != 3:
        raise ConfigError(f"--split needs three fractions, got {text!r}")
    try:
        return SplitSpec(*parts)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def _resolve(args, defaults: dict) -> dict:
    """Merge CLI flags over config-file values over defaults."""
    config = _load_config_file(args.config) if args.config else {}
    unknown = set(config) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            resolved[key] = config[key]
        else:
            resolved[key] = default
    return resolved


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_result_csv(path, config: dict, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sac_fields():
    """(name, type, default) of each SacConfig field a flag sets; --k sets the ensemble size."""
    hints = typing.get_type_hints(SacConfig)
    for f in dataclasses.fields(SacConfig):
        if f.name != "ensemble_size":
            # an optional field takes the type it makes optional
            kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
            yield f.name, next(t for t in kinds if t is not type(None)), f.default


_SAC_FIELDS = tuple(_sac_fields())
SAC_DEFAULTS = {name: default for name, _, default in _SAC_FIELDS}


def _sac_config(resolved: dict, ensemble_size: int) -> SacConfig:
    try:
        values = {
            name: None if resolved[name] is None and default is None else cast(resolved[name])
            for name, cast, default in _SAC_FIELDS
        }
        return SacConfig(**values, ensemble_size=ensemble_size)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _add_sac_flags(parser):
    for name, cast, _ in _SAC_FIELDS:
        parser.add_argument("--" + name.replace("_", "-"), type=cast, dest=name)


def _learner_factory(name):
    if name not in LEARNERS:
        raise ConfigError(f"unknown base learner {name!r}; choose from {sorted(LEARNERS)}")
    return LEARNERS[name]


def _split_task(ds, split_spec, seed):
    try:
        return stratified_split(ds, split_spec, seed)
    except DataError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _ensemble_score(mode, task_parts, *, sampler, mu, n_members, bins, sigma,
                    learner_factory, seed) -> float:
    """Train one ensemble under `mode` and score it on the test split."""
    train, valid, test = task_parts
    # One fixed spawn layout regardless of mode, so each mode sees the same
    # seed stream no matter which other modes run alongside it.
    pol_ss, pol_act, rp_init, rp_act, rp_ss, rs_ss = as_seed_sequence(seed).spawn(6)
    if mode == "policy":
        source = PolicyActionSource(sampler, seed=pol_act)
        subset_ss = pol_ss
        bins, sigma = sampler.bins, sampler.sigma
    elif mode == "random-policy":
        source = PolicyActionSource(random_sampler(bins, sigma, rp_init), seed=rp_act)
        subset_ss = rp_ss
    elif mode == "constant":
        source = ConstantActionSource(mu)
        subset_ss = pol_ss
    elif mode == "random-sampling":
        model = train_random_ensemble(
            train, valid, n_members=n_members, learner_factory=learner_factory, seed=rs_ss
        )
        return aucprc(model.predict_proba(test.features), test.labels)
    else:
        raise ConfigError(f"unknown mode {mode!r}; choose from {MODES}")
    model, _ = train_ensemble(
        train,
        valid,
        source,
        sigma=sigma,
        bins=bins,
        n_members=n_members,
        learner_factory=learner_factory,
        seed=subset_ss,
    )
    return aucprc(model.predict_proba(test.features), test.labels)


def _meta_train_with_log(tasks, config, seed, learner_factory):
    log_rows = []

    def on_step(episode, step, task_index, ensemble_step):
        log_rows.append(
            [
                episode,
                step,
                task_index,
                ensemble_step.action,
                ensemble_step.reward,
                ensemble_step.auc_after,
            ]
        )

    sampler = meta_train(tasks, config, seed, learner_factory=learner_factory, on_step=on_step)
    return sampler, log_rows


def cmd_generate_toy(args) -> int:
    defaults = {"majority": 2000, "minority": 200, "overlap": 0.5, "seed": 0, "out": None}
    resolved = _resolve(args, defaults)
    if resolved["out"] is None:
        raise ConfigError("--out is required")
    try:
        spec = ToySpec(
            n_majority=int(resolved["majority"]),
            n_minority=int(resolved["minority"]),
            overlap=float(resolved["overlap"]),
            seed=int(resolved["seed"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    save_csv(make_toy(spec), resolved["out"])
    print(f"wrote {resolved['out']}")
    return 0


def cmd_meta_train(args) -> int:
    defaults = {
        "label_column": "label",
        "split": "0.6,0.2,0.2",
        "split_seed": 0,
        "seed": "0",
        "k": 10,
        "base_learner": "tree",
        "out": None,
        **SAC_DEFAULTS,
    }
    resolved = _resolve(args, defaults)
    if resolved["out"] is None:
        raise ConfigError("--out is required")
    seeds = _parse_number_list(resolved["seed"], "--seed", int)
    if len(seeds) != 1:
        raise ConfigError("meta-train takes exactly one seed")
    split_spec = _parse_split(resolved["split"])
    sac = _sac_config(resolved, ensemble_size=int(resolved["k"]))
    factory = _learner_factory(resolved["base_learner"])

    tasks = []
    for path in args.tasks:
        ds = load_csv(path, resolved["label_column"])
        train, valid, _ = _split_task(ds, split_spec, int(resolved["split_seed"]))
        tasks.append((train, valid))

    sampler, log_rows = _meta_train_with_log(tasks, sac, seeds[0], factory)
    out = Path(resolved["out"])
    save_sampler(sampler, out / "sampler.json")
    run_config = {**resolved, "tasks": list(args.tasks), "out": str(out)}
    _write_result_csv(
        out / "meta_train_log.csv",
        run_config,
        ["episode", "step", "task_index", "action", "reward", "valid_aucprc"],
        log_rows,
    )
    print(f"wrote {out / 'sampler.json'} and {out / 'meta_train_log.csv'}")
    return 0


def cmd_train(args) -> int:
    defaults = {
        "label_column": "label",
        "split": "0.6,0.2,0.2",
        "seed": "0",
        "k": 10,
        "mode": "policy",
        "sampler": None,
        "mu": 0.5,
        "bins": 5,
        "sigma": 0.2,
        "base_learner": "tree",
        "out": None,
    }
    resolved = _resolve(args, defaults)
    if resolved["out"] is None:
        raise ConfigError("--out is required")
    mode = resolved["mode"]
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {MODES}")
    sampler = None
    if mode == "policy":
        if resolved["sampler"] is None:
            raise ConfigError("--sampler is required for policy mode")
        sampler = load_sampler(resolved["sampler"])
    seeds = _parse_number_list(resolved["seed"], "--seed", int)
    split_spec = _parse_split(resolved["split"])
    factory = _learner_factory(resolved["base_learner"])
    ds = load_csv(args.task, resolved["label_column"])

    rows = []
    for seed in seeds:
        parts = _split_task(ds, split_spec, seed)
        score = _ensemble_score(
            mode,
            parts,
            sampler=sampler,
            mu=float(resolved["mu"]),
            n_members=int(resolved["k"]),
            bins=int(resolved["bins"]),
            sigma=float(resolved["sigma"]),
            learner_factory=factory,
            seed=seed,
        )
        rows.append([seed, score])

    run_config = {**resolved, "task": args.task, "seed": seeds}
    out = Path(resolved["out"])
    _write_result_csv(out / "train_results.csv", run_config, ["seed", "test_aucprc"], rows)
    print(f"wrote {out / 'train_results.csv'}")
    return 0


def _summary(scores) -> tuple:
    arr = np.asarray(scores, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def cmd_ablation(args) -> int:
    defaults = {
        "label_column": "label",
        "split": "0.6,0.2,0.2",
        "seed": "0,1,2,3,4,5,6,7,8,9",
        "meta_seed": 0,
        "k": "5",
        "base_learner": "tree",
        "out": None,
        **SAC_DEFAULTS,
    }
    resolved = _resolve(args, defaults)
    if resolved["out"] is None:
        raise ConfigError("--out is required")
    seeds = _parse_number_list(resolved["seed"], "--seed", int)
    k_list = _parse_number_list(resolved["k"], "--k", int)
    split_spec = _parse_split(resolved["split"])
    factory = _learner_factory(resolved["base_learner"])
    ds = load_csv(args.task, resolved["label_column"])
    meta_train_split = _split_task(ds, split_spec, int(resolved["meta_seed"]))

    raw_rows, summary_rows = [], []
    for k in k_list:
        sac = _sac_config(resolved, ensemble_size=k)
        sampler, _ = _meta_train_with_log(
            [meta_train_split[:2]], sac, int(resolved["meta_seed"]), factory
        )
        scores = {}
        for mode in ("policy", "random-policy", "random-sampling"):
            scores[mode] = []
            for seed in seeds:
                parts = _split_task(ds, split_spec, seed)
                score = _ensemble_score(
                    mode,
                    parts,
                    sampler=sampler,
                    mu=0.5,
                    n_members=k,
                    bins=sac.bins,
                    sigma=sac.sigma,
                    learner_factory=factory,
                    seed=seed,
                )
                scores[mode].append(score)
                raw_rows.append([k, mode, seed, score])
        policy_mean, _ = _summary(scores["policy"])
        for mode in ("policy", "random-policy", "random-sampling"):
            mean, std = _summary(scores[mode])
            delta_pct = 100.0 * (mean - policy_mean) / policy_mean
            summary_rows.append([k, mode, mean, std, delta_pct])

    run_config = {**resolved, "task": args.task, "seed": seeds, "k": k_list}
    out = Path(resolved["out"])
    _write_result_csv(
        out / "ablation_summary.csv",
        run_config,
        ["k", "mode", "mean_aucprc", "std_aucprc", "delta_pct"],
        summary_rows,
    )
    _write_result_csv(
        out / "ablation_raw.csv",
        run_config,
        ["k", "mode", "seed", "test_aucprc"],
        raw_rows,
    )
    print(f"wrote {out / 'ablation_summary.csv'} and {out / 'ablation_raw.csv'}")
    return 0


def cmd_noise_sweep(args) -> int:
    defaults = {
        "label_column": "label",
        "split": "0.6,0.2,0.2",
        "seed": "0,1,2,3,4,5,6,7,8,9",
        "meta_seed": 0,
        "k": 5,
        "ratios": "0,0.1,0.25,0.4",
        "base_learner": "tree",
        "out": None,
        **SAC_DEFAULTS,
    }
    resolved = _resolve(args, defaults)
    if resolved["out"] is None:
        raise ConfigError("--out is required")
    seeds = _parse_number_list(resolved["seed"], "--seed", int)
    ratios = _parse_number_list(resolved["ratios"], "--ratios", float)
    split_spec = _parse_split(resolved["split"])
    factory = _learner_factory(resolved["base_learner"])
    k = int(resolved["k"])
    sac = _sac_config(resolved, ensemble_size=k)
    ds = load_csv(args.task, resolved["label_column"])
    meta_seed = int(resolved["meta_seed"])

    raw_rows, summary_rows = [], []
    for ratio in ratios:
        meta_parts = _split_task(ds, split_spec, meta_seed)
        noisy_meta_train = inject_flip_noise(meta_parts[0], ratio, meta_seed)
        sampler, _ = _meta_train_with_log(
            [(noisy_meta_train, meta_parts[1])], sac, meta_seed, factory
        )
        scores = {}
        for mode in ("policy", "random-sampling"):
            scores[mode] = []
            for seed in seeds:
                train, valid, test = _split_task(ds, split_spec, seed)
                noisy_train = inject_flip_noise(train, ratio, seed)
                score = _ensemble_score(
                    mode,
                    (noisy_train, valid, test),
                    sampler=sampler,
                    mu=0.5,
                    n_members=k,
                    bins=sac.bins,
                    sigma=sac.sigma,
                    learner_factory=factory,
                    seed=seed,
                )
                scores[mode].append(score)
                raw_rows.append([ratio, mode, seed, score])
        for mode in ("policy", "random-sampling"):
            mean, std = _summary(scores[mode])
            summary_rows.append([ratio, mode, mean, std])

    run_config = {**resolved, "task": args.task, "seed": seeds, "ratios": ratios}
    out = Path(resolved["out"])
    _write_result_csv(
        out / "noise_summary.csv",
        run_config,
        ["ratio", "mode", "mean_aucprc", "std_aucprc"],
        summary_rows,
    )
    _write_result_csv(
        out / "noise_raw.csv",
        run_config,
        ["ratio", "mode", "seed", "test_aucprc"],
        raw_rows,
    )
    print(f"wrote {out / 'noise_summary.csv'} and {out / 'noise_raw.csv'}")
    return 0


def cmd_transfer(args) -> int:
    defaults = {
        "label_column": "label",
        "split": "0.6,0.2,0.2",
        "seed": "0,1,2,3,4,5,6,7,8,9",
        "k": 5,
        "sampler": None,
        "reference_sampler": None,
        "base_learner": "tree",
        "out": None,
    }
    resolved = _resolve(args, defaults)
    if resolved["out"] is None:
        raise ConfigError("--out is required")
    if resolved["sampler"] is None:
        raise ConfigError("--sampler is required")
    sampler = load_sampler(resolved["sampler"])
    reference = (
        load_sampler(resolved["reference_sampler"])
        if resolved["reference_sampler"] is not None
        else None
    )
    seeds = _parse_number_list(resolved["seed"], "--seed", int)
    split_spec = _parse_split(resolved["split"])
    factory = _learner_factory(resolved["base_learner"])
    k = int(resolved["k"])
    ds = load_csv(args.task, resolved["label_column"])

    raw_rows = []
    scores = {"transfer": [], "reference": []}
    for seed in seeds:
        parts = _split_task(ds, split_spec, seed)
        for name, current in (("transfer", sampler), ("reference", reference)):
            if current is None:
                continue
            score = _ensemble_score(
                "policy",
                parts,
                sampler=current,
                mu=0.5,
                n_members=k,
                bins=current.bins,
                sigma=current.sigma,
                learner_factory=factory,
                seed=seed,
            )
            scores[name].append(score)
            raw_rows.append([name, seed, score])

    summary_rows = []
    transfer_mean, transfer_std = _summary(scores["transfer"])
    if reference is not None:
        reference_mean, reference_std = _summary(scores["reference"])
        delta = 100.0 * (transfer_mean - reference_mean) / reference_mean
        summary_rows.append(["transfer", transfer_mean, transfer_std, delta])
        summary_rows.append(["reference", reference_mean, reference_std, 0.0])
    else:
        summary_rows.append(["transfer", transfer_mean, transfer_std, ""])

    run_config = {**resolved, "task": args.task, "seed": seeds}
    out = Path(resolved["out"])
    _write_result_csv(
        out / "transfer_summary.csv",
        run_config,
        ["mode", "mean_aucprc", "std_aucprc", "delta_pct_vs_reference"],
        summary_rows,
    )
    _write_result_csv(
        out / "transfer_raw.csv",
        run_config,
        ["mode", "seed", "test_aucprc"],
        raw_rows,
    )
    print(f"wrote {out / 'transfer_summary.csv'} and {out / 'transfer_raw.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metasampler", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-toy", help="write a synthetic arc-vs-blob task as CSV")
    p.add_argument("--config")
    p.add_argument("--majority", type=int)
    p.add_argument("--minority", type=int)
    p.add_argument("--overlap", type=float)
    p.add_argument("--seed")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_generate_toy)

    p = sub.add_parser("meta-train", help="train a sampling policy on one or more tasks")
    p.add_argument("tasks", nargs="+")
    p.add_argument("--config")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--split")
    p.add_argument("--split-seed", type=int, dest="split_seed")
    p.add_argument("--seed")
    p.add_argument("--k", type=int)
    p.add_argument("--base-learner", dest="base_learner")
    p.add_argument("--out")
    _add_sac_flags(p)
    p.set_defaults(handler=cmd_meta_train)

    p = sub.add_parser("train", help="train cascade ensembles and report test AUCPRC per seed")
    p.add_argument("task")
    p.add_argument("--config")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--split")
    p.add_argument("--seed")
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--sampler")
    p.add_argument("--mu", type=float)
    p.add_argument("--bins", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--base-learner", dest="base_learner")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("ablation", help="learned policy vs random policy vs random sampling")
    p.add_argument("task")
    p.add_argument("--config")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--split")
    p.add_argument("--seed")
    p.add_argument("--meta-seed", type=int, dest="meta_seed")
    p.add_argument("--k")
    p.add_argument("--base-learner", dest="base_learner")
    p.add_argument("--out")
    _add_sac_flags(p)
    p.set_defaults(handler=cmd_ablation)

    p = sub.add_parser("noise-sweep", help="robustness to minority/majority label flips")
    p.add_argument("task")
    p.add_argument("--config")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--split")
    p.add_argument("--seed")
    p.add_argument("--meta-seed", type=int, dest="meta_seed")
    p.add_argument("--k", type=int)
    p.add_argument("--ratios")
    p.add_argument("--base-learner", dest="base_learner")
    p.add_argument("--out")
    _add_sac_flags(p)
    p.set_defaults(handler=cmd_noise_sweep)

    p = sub.add_parser("transfer", help="apply a trained sampler to a new task without retraining")
    p.add_argument("task")
    p.add_argument("--config")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--split")
    p.add_argument("--seed")
    p.add_argument("--k", type=int)
    p.add_argument("--sampler")
    p.add_argument("--reference-sampler", dest="reference_sampler")
    p.add_argument("--base-learner", dest="base_learner")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_transfer)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
