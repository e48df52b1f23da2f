"""Command-line interface for desk-scale experiments.

Subcommands: generate-toy, meta-train, train, ablation, noise-sweep,
transfer. Every config key of a subcommand is also its flag (underscores
become dashes), and --config points at a flat JSON file holding any of those
keys; explicit flags win over the file, the file wins over built-in
defaults. Result CSVs open with a comment row recording the resolved
configuration, so identical configs and seeds reproduce output files byte for
byte.

Exit codes: 0 success, 1 configuration error, 2 data error (including a
malformed sampler file), 3 numerical failure (including a sampler file with
non-finite parameters).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
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
from .rng import as_seed_sequence, strict_float, strict_int
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
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{flag} has a bad entry in {text!r}: {exc}") from None


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


# Ranges checked before any work, for each of these keys a command has:
# key -> (cast, test, wording). A key whose default is text holds a comma list.
# Other keys with a number default (SAC fields aside) are only cast. Every
# integer goes through strict_int, which refuses booleans and fractions, and
# every float through strict_float, which refuses booleans.
_RANGES = {
    "k": (strict_int, lambda v: v >= 1, "at least 1"),
    "mu": (strict_float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "bins": (strict_int, lambda v: v >= 1, "at least 1"),
    "sigma": (strict_float, lambda v: 0.0 < v < math.inf, "finite and positive"),
    "ratios": (strict_float, lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
}

# Keys that hold text, or None where that is the default; a label column may
# also be an integer position.
_TEXT_KEYS = {"out", "sampler", "reference_sampler", "base_learner", "mode", "label_column"}


@dataclasses.dataclass
class _Run:
    """A command's resolved configuration and the values parsed from it."""

    config: dict  # as recorded in each result CSV's comment row
    out: Path
    numbers: dict  # each number key of the command, cast and checked
    seeds: list = None  # seeds, split and factory: commands that split a task
    split: SplitSpec = None
    factory: type = None


def _checked_number(key, value, default):
    cast, test, wording = _RANGES.get(key) or (_CASTS[type(default)], None, None)
    flag = "--" + key.replace("_", "-")
    is_list = isinstance(default, str)
    try:
        values = _parse_number_list(value, flag, cast) if is_list else [cast(value)]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{flag} is not a valid number: {value!r} ({exc})") from None
    for v in values:
        if test is not None and not test(v):
            raise ConfigError(f"{flag} must be {wording}, got {v!r}")
    return values if is_list else values[0]


def _resolve(args, defaults: dict) -> _Run:
    """Merge CLI flags over config-file values over defaults, then check and parse them."""
    file_config = _load_config_file(args.config) if args.config else {}
    unknown = set(file_config) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    config = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            config[key] = flag_value
        elif key in file_config:
            config[key] = file_config[key]
        else:
            config[key] = default
    for key, value in config.items():
        if key in _TEXT_KEYS and not (
            isinstance(value, str)
            or (value is None and defaults[key] is None)
            or (key == "label_column" and type(value) is int)
        ):
            raise ConfigError(f"--{key.replace('_', '-')} must be text, got {value!r}")
    if config["out"] is None:
        raise ConfigError("--out is required")
    numbers = {
        key: _checked_number(key, config[key], default)
        for key, default in defaults.items()
        if key in _RANGES or (key not in _SAC_CASTS and type(default) in (int, float))
    }
    run = _Run(config, Path(config["out"]), numbers)
    if "split" in config:
        run.seeds = _parse_number_list(config["seed"], "--seed", strict_int)
        fractions = _parse_number_list(config["split"], "--split", strict_float)
        if len(fractions) != 3:
            raise ConfigError(f"--split needs three fractions, got {config['split']!r}")
        try:
            run.split = SplitSpec(*fractions)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        run.factory = LEARNERS.get(config["base_learner"])
        if run.factory is None:
            raise ConfigError(
                f"unknown base learner {config['base_learner']!r}; choose from {sorted(LEARNERS)}"
            )
    return run


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
_SAC_CASTS = {name: cast for name, cast, _ in _SAC_FIELDS}
_CASTS = {int: strict_int, float: strict_float}  # a number type -> the cast of its config values


def _sac_config(resolved: dict, ensemble_size: int) -> SacConfig:
    try:
        values = {
            name: None if resolved[name] is None and default is None
            else _CASTS[cast](resolved[name])
            for name, cast, default in _SAC_FIELDS
        }
        return SacConfig(**values, ensemble_size=ensemble_size)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


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


def _summary(scores) -> tuple:
    arr = np.asarray(scores, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def _summary_rows(scores, baseline=None) -> list:
    """[label, mean, std] of each arm's scores.

    With `baseline`, each row adds the percent change of its mean from the
    baseline arm's mean, or "" when that arm did not run.
    """
    base = _summary(scores[baseline])[0] if baseline in scores else None
    rows = []
    for label, arm_scores in scores.items():
        mean, std = _summary(arm_scores)
        row = [label, mean, std]
        if baseline is not None:
            row.append("" if base is None else 100.0 * (mean - base) / base)
        rows.append(row)
    return rows


def _score_arms(ds, run, arms, *, k, ratio=None, mu=None, bins=None, sigma=None):
    """Test AUCPRC per seed of each (label, mode, sampler) arm: {label: [score per seed]}.

    Each seed splits the task once for all arms; with `ratio`, its train part
    first gets flip noise at that ratio. The knobs are named after the config
    keys that set them (k is the ensemble size); a mode ignores those it does
    not use.
    """
    scores = {label: [] for label, _, _ in arms}
    for seed in run.seeds:
        train, valid, test = _split_task(ds, run.split, seed)
        if ratio is not None:
            train = inject_flip_noise(train, ratio, seed)
        for label, mode, sampler in arms:
            scores[label].append(
                _ensemble_score(
                    mode,
                    (train, valid, test),
                    sampler=sampler,
                    mu=mu,
                    n_members=k,
                    bins=bins,
                    sigma=sigma,
                    learner_factory=run.factory,
                    seed=seed,
                )
            )
    return scores


def _sweep(ds, run, modes, points, baseline=None):
    """Meta-train at --meta-seed, then score `modes`, at each (value, SacConfig, ratio) point.

    A point's ratio, unless None, flip-noises the train parts first. Returns the
    summary rows (see _summary_rows) and the raw rows, mode-major within each
    point, each led by the point's value.
    """
    meta_seed = run.numbers["meta_seed"]
    summary_rows, raw_rows = [], []
    for value, sac, ratio in points:
        train, valid, _ = _split_task(ds, run.split, meta_seed)
        if ratio is not None:
            train = inject_flip_noise(train, ratio, meta_seed)
        sampler = meta_train([(train, valid)], sac, meta_seed, learner_factory=run.factory)
        scores = _score_arms(
            ds,
            run,
            [(mode, mode, sampler) for mode in modes],
            k=sac.ensemble_size,
            ratio=ratio,
            bins=sac.bins,
            sigma=sac.sigma,
        )
        raw_rows += [
            [value, mode, seed, score]
            for mode in modes
            for seed, score in zip(run.seeds, scores[mode])
        ]
        summary_rows += [[value, *row] for row in _summary_rows(scores, baseline)]
    return summary_rows, raw_rows


def _write_results(run, args, tables, **parsed) -> None:
    """Write each (file name, header, rows) table under --out and say so.

    The comment row holds the resolved config with the task, the parsed seeds
    and any other `parsed` lists in place of their text.
    """
    run_config = {**run.config, "task": args.task, "seed": run.seeds, **parsed}
    paths = [run.out / name for name, _, _ in tables]
    for path, (_, header, rows) in zip(paths, tables):
        _write_result_csv(path, run_config, header, rows)
    print("wrote " + " and ".join(map(str, paths)))


def cmd_generate_toy(run, args) -> int:
    numbers = run.numbers
    try:
        spec = ToySpec(
            n_majority=numbers["majority"],
            n_minority=numbers["minority"],
            overlap=numbers["overlap"],
            seed=strict_int(run.config["seed"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    save_csv(make_toy(spec), run.config["out"])
    print(f"wrote {run.config['out']}")
    return 0


def cmd_meta_train(run, args) -> int:
    if len(run.seeds) != 1:
        raise ConfigError("meta-train takes exactly one seed")
    sac = _sac_config(run.config, ensemble_size=run.numbers["k"])
    tasks = []
    for path in args.tasks:
        ds = load_csv(path, run.config["label_column"])
        train, valid, _ = _split_task(ds, run.split, run.numbers["split_seed"])
        tasks.append((train, valid))

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

    sampler = meta_train(tasks, sac, run.seeds[0], learner_factory=run.factory, on_step=on_step)
    save_sampler(sampler, run.out / "sampler.json")
    _write_result_csv(
        run.out / "meta_train_log.csv",
        {**run.config, "tasks": list(args.tasks), "out": str(run.out)},
        ["episode", "step", "task_index", "action", "reward", "valid_aucprc"],
        log_rows,
    )
    print(f"wrote {run.out / 'sampler.json'} and {run.out / 'meta_train_log.csv'}")
    return 0


def cmd_train(run, args) -> int:
    mode = run.config["mode"]
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {MODES}")
    sampler = None
    if mode == "policy":
        if run.config["sampler"] is None:
            raise ConfigError("--sampler is required for policy mode")
        sampler = load_sampler(run.config["sampler"])
    ds = load_csv(args.task, run.config["label_column"])
    scores = _score_arms(ds, run, [(mode, mode, sampler)], **run.numbers)
    rows = [[seed, score] for seed, score in zip(run.seeds, scores[mode])]
    _write_results(run, args, [("train_results.csv", ["seed", "test_aucprc"], rows)])
    return 0


def cmd_ablation(run, args) -> int:
    k_list = run.numbers["k"]
    points = [(k, _sac_config(run.config, ensemble_size=k), None) for k in k_list]
    ds = load_csv(args.task, run.config["label_column"])
    modes = ("policy", "random-policy", "random-sampling")
    summary_rows, raw_rows = _sweep(ds, run, modes, points, baseline="policy")
    _write_results(
        run,
        args,
        [
            ("ablation_summary.csv", ["k", "mode", "mean_aucprc", "std_aucprc", "delta_pct"],
             summary_rows),
            ("ablation_raw.csv", ["k", "mode", "seed", "test_aucprc"], raw_rows),
        ],
        k=k_list,
    )
    return 0


def cmd_noise_sweep(run, args) -> int:
    ratios = run.numbers["ratios"]
    sac = _sac_config(run.config, ensemble_size=run.numbers["k"])
    ds = load_csv(args.task, run.config["label_column"])
    points = [(ratio, sac, ratio) for ratio in ratios]
    summary_rows, raw_rows = _sweep(ds, run, ("policy", "random-sampling"), points)
    _write_results(
        run,
        args,
        [
            ("noise_summary.csv", ["ratio", "mode", "mean_aucprc", "std_aucprc"], summary_rows),
            ("noise_raw.csv", ["ratio", "mode", "seed", "test_aucprc"], raw_rows),
        ],
        ratios=ratios,
    )
    return 0


def cmd_transfer(run, args) -> int:
    if run.config["sampler"] is None:
        raise ConfigError("--sampler is required")
    arms = [("transfer", "policy", load_sampler(run.config["sampler"]))]
    if run.config["reference_sampler"] is not None:
        arms.append(("reference", "policy", load_sampler(run.config["reference_sampler"])))
    ds = load_csv(args.task, run.config["label_column"])
    scores = _score_arms(ds, run, arms, **run.numbers)
    raw_rows = [
        [label, seed, scores[label][i]] for i, seed in enumerate(run.seeds) for label in scores
    ]
    _write_results(
        run,
        args,
        [
            ("transfer_summary.csv",
             ["mode", "mean_aucprc", "std_aucprc", "delta_pct_vs_reference"],
             _summary_rows(scores, baseline="reference")),
            ("transfer_raw.csv", ["mode", "seed", "test_aucprc"], raw_rows),
        ],
    )
    return 0


def _task_defaults(**own) -> dict:
    """Defaults of a command that splits a task: the shared keys around its own."""
    return {"label_column": "label", "split": "0.6,0.2,0.2", **own,
            "base_learner": "tree", "out": None}


_TEN_SEEDS = "0,1,2,3,4,5,6,7,8,9"

# (name, positional, handler, help, defaults): each defaults key is a config
# key and a flag. generate-toy's seed default is text because its flag is.
COMMANDS = (
    ("generate-toy", None, cmd_generate_toy, "write a synthetic arc-vs-blob task as CSV",
     {"majority": 2000, "minority": 200, "overlap": 0.5, "seed": "0", "out": None}),
    ("meta-train", "tasks", cmd_meta_train, "train a sampling policy on one or more tasks",
     {**_task_defaults(split_seed=0, seed="0", k=10), **SAC_DEFAULTS}),
    ("train", "task", cmd_train, "train cascade ensembles and report test AUCPRC per seed",
     _task_defaults(seed="0", k=10, mode="policy", sampler=None, mu=0.5, bins=5, sigma=0.2)),
    ("ablation", "task", cmd_ablation, "learned policy vs random policy vs random sampling",
     {**_task_defaults(seed=_TEN_SEEDS, meta_seed=0, k="5"), **SAC_DEFAULTS}),
    ("noise-sweep", "task", cmd_noise_sweep, "robustness to minority/majority label flips",
     {**_task_defaults(seed=_TEN_SEEDS, meta_seed=0, k=5, ratios="0,0.1,0.25,0.4"),
      **SAC_DEFAULTS}),
    ("transfer", "task", cmd_transfer, "apply a trained sampler to a new task without retraining",
     _task_defaults(seed=_TEN_SEEDS, k=5, sampler=None, reference_sampler=None)),
)

def _flag_type(key, default):
    """A SAC field's cast, else int or float as the default is, else text (None)."""
    cast = _SAC_CASTS.get(key, type(default))
    return cast if cast in (int, float) else None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metasampler", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, positional, handler, help_text, defaults in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if positional is not None:
            p.add_argument(positional, nargs="+" if positional == "tasks" else None)
        p.add_argument("--config")
        for key, default in defaults.items():
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                type=_flag_type(key, default),
                choices=MODES if key == "mode" else None,
            )
        p.set_defaults(handler=handler, defaults=defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(_resolve(args, args.defaults), args)
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
