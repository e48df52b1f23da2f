"""Command-line interface for desk-scale experiments.

Subcommands: generate-toy, meta-train, train, ablation, noise-sweep,
transfer. Every config key of a subcommand is also its flag (underscores
become dashes), and --config points at a flat JSON file holding any of those
keys; explicit flags win over the file, the file wins over built-in
defaults. Every flag is plain text, and each value, from a flag or the file,
goes through the one parse of its key (its cast and range) before any task or
sampler file is read, so a flag and a config-file entry mean the same thing.
Seeds must be non-negative, and --label-column names a header of the task CSV.
train and transfer score their arms through the library's score_arms;
ablation and noise-sweep run sac.experiment_point at each point of the sweep,
which meta-trains at --meta-seed and then runs score_arms with the point's
ensemble size, bins and sigma. So a result CSV holds the scores they return.
Result CSVs open with a comment row recording the resolved configuration,
each single number as it ran, so identical configs and seeds reproduce output
files byte for byte. train refuses a --sampler, --mu, --bins or --sigma (flag
or config file) that its mode does not use (see sac.MODES) before any file is
read; policy mode runs with, and records, its sampler's bins and sigma, and
refuses a --bins or --sigma that differs from them.

Exit codes: 0 success, 1 configuration error (including a config file that
cannot be read), 2 data error (including a task CSV or sampler file that cannot
be read, or a malformed sampler file), 3 numerical failure (including a sampler
file with non-finite parameters, and a sigma whose Gaussian peak overflows).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .dataset import SplitSpec, ToySpec, load_csv, make_toy, save_csv, stratified_split
from .errors import ConfigError, DataError, NumericalError
from .learners import DecisionTree, GaussianNaiveBayes
from .rng import check_float, check_integer, strict_float, strict_int
from .sac import (
    MODES, SacConfig, experiment_point, load_sampler, meta_train, save_sampler, score_arms,
)

LEARNERS = {"tree": DecisionTree, "gnb": GaussianNaiveBayes}


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
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8, not JSON
        raise ConfigError(f"config file {path} cannot be read as JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


# every SacConfig field a flag sets; --k sets the ensemble size
_SAC_FIELDS = [f for f in dataclasses.fields(SacConfig) if f.name != "ensemble_size"]
SAC_DEFAULTS = {f.name: f.default for f in _SAC_FIELDS}
_SEED = (strict_int, 0)

# The parse of every number key: key -> (cast, bound), the bound being an integer
# key's least value or a real key's interval, which check_integer or check_float
# checks under the flag's name before any work. A key whose default is text holds
# a comma list, each entry cast and checked. Every other key holds text.
# strict_int refuses booleans and fractions, strict_float refuses booleans.
_NUMBERS = {
    # a field annotated int, or int | None, is an integer key
    **{f.name: (strict_int if f.type.startswith("int") else strict_float, None)
       for f in _SAC_FIELDS},
    "majority": (strict_int, None),
    "minority": (strict_int, None),
    "overlap": (strict_float, None),
    "seed": _SEED,
    "split_seed": _SEED,
    "meta_seed": _SEED,
    "split": (strict_float, None),
    "k": (strict_int, 1),
    "mu": (strict_float, "[0, 1]"),
    "bins": (strict_int, 1),
    "sigma": (strict_float, "(0, inf)"),
    "ratios": (strict_float, "[0, 1)"),
}

_CHOICES = {"mode": tuple(MODES), "base_learner": tuple(LEARNERS)}  # text keys with named values


@dataclasses.dataclass
class _Run:
    """A command's resolved configuration and the values parsed from it."""

    config: dict  # as recorded in each result CSV's comment row
    values: dict  # each key's value as it runs (see _parse)
    given: set  # the keys set by a flag or the config file
    out: Path
    seeds: list = None  # seeds, split and factory: commands that split a task
    split: SplitSpec = None
    factory: type = None


def _parse(key, value, default):
    """The value of config key `key` as it runs, from a flag's text or a config-file entry."""
    flag = "--" + key.replace("_", "-")
    if value is None and default is None:
        return None  # an unset optional key
    if key not in _NUMBERS:
        if not isinstance(value, str):
            raise ConfigError(f"{flag} must be text, got {value!r}")
        choices = _CHOICES.get(key)
        if choices is not None and value not in choices:
            raise ConfigError(f"unknown {flag} {value!r}; choose from {choices}")
        return value
    cast, bound = _NUMBERS[key]
    is_list = isinstance(default, str)
    try:
        values = _parse_number_list(value, flag, cast) if is_list else [cast(value)]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{flag} is not a valid number: {value!r} ({exc})") from None
    check = check_integer if cast is strict_int else check_float
    try:
        values = [check(flag, v, bound) for v in values]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return values if is_list else values[0]


def _check_out(out: Path, is_file: bool) -> None:
    """Refuse an --out that cannot be written, before any work.

    generate-toy writes --out as a file; every other command writes its files
    in --out as a directory. Neither may name or sit under an existing file.
    """
    if is_file and out.is_dir():
        raise ConfigError(f"--out {out} is a directory, not a file")
    existing = out.parent if is_file else out
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise ConfigError(f"--out {out} cannot be written: {existing} is a file")


def _resolve(args, defaults: dict) -> _Run:
    """Merge CLI flags over config-file values over defaults, then parse each value once."""
    file_config = _load_config_file(args.config) if args.config else {}
    unknown = set(file_config) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    config, values = {}, {}
    given = {key for key in defaults if getattr(args, key) is not None or key in file_config}
    for key, default in defaults.items():
        flag_value = getattr(args, key)
        value = flag_value if flag_value is not None else file_config.get(key, default)
        values[key] = _parse(key, value, default)
        # the record keeps a comma list as given; commands add the lists they parse
        config[key] = value if isinstance(default, str) else values[key]
    if values["out"] is None:
        raise ConfigError("--out is required")
    run = _Run(config, values, given, Path(values["out"]))
    _check_out(run.out, is_file=args.command == "generate-toy")
    if "split" in values:
        run.seeds = values["seed"]
        if len(values["split"]) != 3:
            raise ConfigError(f"--split needs three fractions, got {config['split']!r}")
        try:
            run.split = SplitSpec(*values["split"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        run.factory = LEARNERS[values["base_learner"]]
    return run


def _format_cell(value) -> str:
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


def _sac_config(values: dict, ensemble_size: int) -> SacConfig:
    try:
        fields = {name: values[name] for name in SAC_DEFAULTS}
        return SacConfig(**fields, ensemble_size=ensemble_size)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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


def _sweep(run, args, name, column, modes, points, baseline=None, **parsed) -> int:
    """Run sac.experiment_point of `modes` at --meta-seed for each (value, SacConfig, ratio).

    Each point meta-trains on the task's split at --meta-seed with its
    SacConfig, its ratio flip-noising the train parts (0 leaves them as they
    are), and scores `modes` over --seed. Writes <name>_summary.csv (see
    _summary_rows) and <name>_raw.csv, mode-major within each point; each row
    starts with its point's value, headed `column`. `parsed` goes to
    _write_results.
    """
    ds = load_csv(args.task, run.config["label_column"])
    summary_rows, raw_rows = [], []
    for value, sac, ratio in points:
        _, scores = experiment_point(
            ds, run.split, run.values["meta_seed"], run.seeds, modes, sac, noise_ratio=ratio,
            learner_factory=run.factory,
        )
        raw_rows += [
            [value, mode, seed, score]
            for mode in modes
            for seed, score in zip(run.seeds, scores[mode])
        ]
        summary_rows += [[value, *row] for row in _summary_rows(scores, baseline)]
    summary_header = [column, "mode", "mean_aucprc", "std_aucprc"]
    summary_header += ["delta_pct"] if baseline is not None else []
    tables = [
        (f"{name}_summary.csv", summary_header, summary_rows),
        (f"{name}_raw.csv", [column, "mode", "seed", "test_aucprc"], raw_rows),
    ]
    _write_results(run, args, tables, **parsed)
    return 0


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
    values = run.values
    try:
        spec = ToySpec(
            n_majority=values["majority"],
            n_minority=values["minority"],
            overlap=values["overlap"],
            seed=values["seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    save_csv(make_toy(spec), values["out"])
    print(f"wrote {values['out']}")
    return 0


def cmd_meta_train(run, args) -> int:
    if len(run.seeds) != 1:
        raise ConfigError("meta-train takes exactly one seed")
    sac = _sac_config(run.values, ensemble_size=run.values["k"])
    tasks = []
    for path in args.tasks:
        ds = load_csv(path, run.config["label_column"])
        train, valid, _ = stratified_split(ds, run.split, run.values["split_seed"])
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
    values = run.values
    mode = values["mode"]
    unused = run.given & (set().union(*MODES.values()) - set(MODES[mode]))
    if unused:
        raise ConfigError(f"--mode {mode} does not use --{', --'.join(sorted(unused))}")
    sampler = None
    if mode == "policy":
        if run.config["sampler"] is None:
            raise ConfigError("--sampler is required for policy mode")
        sampler = load_sampler(run.config["sampler"])
        # the sampler's own bins and sigma run, so the record holds them
        for key in ("bins", "sigma"):
            own = getattr(sampler, key)
            if key in run.given and values[key] != own:
                raise ConfigError(
                    f"--{key} {values[key]!r} differs from the sampler's {own!r}, "
                    "which policy mode runs with"
                )
            run.config[key] = own
    ds = load_csv(args.task, run.config["label_column"])
    scores = score_arms(
        ds, run.split, run.seeds, [(mode, mode, sampler)], n_members=values["k"],
        mu=values["mu"], bins=values["bins"], sigma=values["sigma"], learner_factory=run.factory,
    )
    rows = [[seed, score] for seed, score in zip(run.seeds, scores[mode])]
    _write_results(run, args, [("train_results.csv", ["seed", "test_aucprc"], rows)])
    return 0


def cmd_ablation(run, args) -> int:
    k_list = run.values["k"]
    points = [(k, _sac_config(run.values, ensemble_size=k), 0.0) for k in k_list]
    modes = ("policy", "random-policy", "random-sampling")
    return _sweep(run, args, "ablation", "k", modes, points, baseline="policy", k=k_list)


def cmd_noise_sweep(run, args) -> int:
    ratios = run.values["ratios"]
    sac = _sac_config(run.values, ensemble_size=run.values["k"])
    points = [(ratio, sac, ratio) for ratio in ratios]
    modes = ("policy", "random-sampling")
    return _sweep(run, args, "noise", "ratio", modes, points, ratios=ratios)


def cmd_transfer(run, args) -> int:
    if run.config["sampler"] is None:
        raise ConfigError("--sampler is required")
    arms = [("transfer", "policy", load_sampler(run.config["sampler"]))]
    if run.config["reference_sampler"] is not None:
        arms.append(("reference", "policy", load_sampler(run.config["reference_sampler"])))
    ds = load_csv(args.task, run.config["label_column"])
    scores = score_arms(
        ds, run.split, run.seeds, arms, n_members=run.values["k"], learner_factory=run.factory
    )
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
# key and a flag; a number key whose default is text holds a comma list.
COMMANDS = (
    ("generate-toy", None, cmd_generate_toy, "write a synthetic arc-vs-blob task as CSV",
     {"majority": 2000, "minority": 200, "overlap": 0.5, "seed": 0, "out": None}),
    ("meta-train", "tasks", cmd_meta_train, "train a sampling policy on one or more tasks",
     {**_task_defaults(split_seed=0, seed="0", k=SacConfig.ensemble_size), **SAC_DEFAULTS}),
    ("train", "task", cmd_train, "train cascade ensembles and report test AUCPRC per seed",
     _task_defaults(seed="0", k=SacConfig.ensemble_size, mode="policy", sampler=None, mu=0.5,
                    bins=SacConfig.bins, sigma=SacConfig.sigma)),
    ("ablation", "task", cmd_ablation, "learned policy vs random policy vs random sampling",
     {**_task_defaults(seed=_TEN_SEEDS, meta_seed=0, k="5"), **SAC_DEFAULTS}),
    ("noise-sweep", "task", cmd_noise_sweep, "robustness to minority/majority label flips",
     {**_task_defaults(seed=_TEN_SEEDS, meta_seed=0, k=5, ratios="0,0.1,0.25,0.4"),
      **SAC_DEFAULTS}),
    ("transfer", "task", cmd_transfer, "apply a trained sampler to a new task without retraining",
     _task_defaults(seed=_TEN_SEEDS, k=5, sampler=None, reference_sampler=None)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metasampler", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, positional, handler, help_text, defaults in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if positional is not None:
            p.add_argument(positional, nargs="+" if positional == "tasks" else None)
        p.add_argument("--config")
        for key in defaults:
            p.add_argument("--" + key.replace("_", "-"), dest=key)
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
