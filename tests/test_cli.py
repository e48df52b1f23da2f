import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from metasampler import (
    SacConfig, SplitSpec, load_csv, load_sampler, random_sampler, save_sampler, score_arms,
)
from metasampler.cli import COMMANDS, build_parser, main
from metasampler.sac import experiment_point
from conftest import numpy_kernels

TINY_SAC = [
    "--k", "3",
    "--gradient-steps", "4",
    "--random-steps", "4",
    "--batch-size", "4",
    "--replay-capacity", "32",
]


def read_result_csv(path):
    """Split a result CSV into (config dict, header list, data rows)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return config, header, rows


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def task_csv(workdir):
    path = workdir / "task.csv"
    assert main([
        "generate-toy", "--majority", "60", "--minority", "12",
        "--overlap", "0.5", "--seed", "3", "--out", str(path),
    ]) == 0
    return path


@pytest.fixture(scope="module")
def other_task_csv(workdir):
    path = workdir / "other_task.csv"
    assert main([
        "generate-toy", "--majority", "60", "--minority", "12",
        "--overlap", "0.6", "--seed", "4", "--out", str(path),
    ]) == 0
    return path


@pytest.fixture(scope="module")
def sampler_path(workdir, task_csv):
    out = workdir / "meta"
    assert main(["meta-train", str(task_csv), "--out", str(out), *TINY_SAC]) == 0
    return out / "sampler.json"


class TestGenerateToy:
    def test_default_spec_row_count(self, tmp_path):
        path = tmp_path / "toy.csv"
        assert main(["generate-toy", "--out", str(path)]) == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2201  # header + 2000 majority + 200 minority

    def test_seed_reproducibility(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        common = ["generate-toy", "--majority", "40", "--minority", "8"]
        assert main([*common, "--seed", "5", "--out", str(a)]) == 0
        assert main([*common, "--seed", "5", "--out", str(b)]) == 0
        assert main([*common, "--seed", "6", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_invalid_overlap_is_config_error(self, tmp_path):
        assert main([
            "generate-toy", "--overlap", "1.5", "--out", str(tmp_path / "x.csv"),
        ]) == 1

    def test_out_required(self):
        assert main(["generate-toy"]) == 1


class TestConfigMerge:
    def test_flag_beats_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"overlap": 0.9, "majority": 40, "minority": 8}), encoding="utf-8"
        )
        from_both = tmp_path / "both.csv"
        from_flag = tmp_path / "flag.csv"
        assert main([
            "generate-toy", "--config", str(config),
            "--overlap", "0.2", "--out", str(from_both),
        ]) == 0
        assert main([
            "generate-toy", "--majority", "40", "--minority", "8",
            "--overlap", "0.2", "--out", str(from_flag),
        ]) == 0
        assert from_both.read_bytes() == from_flag.read_bytes()

    def test_cascade_defaults_are_sac_config_fields(self):
        defaults = {name: command_defaults for name, _, _, _, command_defaults in COMMANDS}
        config = SacConfig()
        train = defaults["train"]
        assert (train["k"], train["bins"], train["sigma"]) == (
            config.ensemble_size, config.bins, config.sigma
        )
        assert defaults["meta-train"]["k"] == config.ensemble_size

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"overlp": 0.9}), encoding="utf-8")
        assert main([
            "generate-toy", "--config", str(config), "--out", str(tmp_path / "x.csv"),
        ]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main([
            "generate-toy", "--config", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "x.csv"),
        ]) == 1

    def test_malformed_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json", encoding="utf-8")
        assert main([
            "generate-toy", "--config", str(config), "--out", str(tmp_path / "x.csv"),
        ]) == 1

    def test_non_object_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]", encoding="utf-8")
        assert main([
            "generate-toy", "--config", str(config), "--out", str(tmp_path / "x.csv"),
        ]) == 1

    @pytest.mark.parametrize("value", [None, [64], "many"])
    def test_bad_sac_value_in_config_file(self, tmp_path, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"batch_size": value}), encoding="utf-8")
        assert main([
            "meta-train", str(tmp_path / "task.csv"), "--config", str(config),
            "--out", str(tmp_path / "out"),
        ]) == 1


class TestMetaTrain:
    def test_writes_sampler_and_log(self, workdir, task_csv, sampler_path):
        assert sampler_path.exists()
        sampler = load_sampler(sampler_path)
        assert sampler.bins == 5
        config, header, rows = read_result_csv(sampler_path.parent / "meta_train_log.csv")
        assert header == ["episode", "step", "task_index", "action", "reward", "valid_aucprc"]
        assert config["k"] == 3
        assert rows, "expected at least one logged step"
        for row in rows:
            assert 0.0 <= float(row[3]) <= 1.0
            assert 0.0 <= float(row[5]) <= 1.0

    def test_rerun_is_byte_identical(self, tmp_path, task_csv):
        out = tmp_path / "meta"
        argv = ["meta-train", str(task_csv), "--out", str(out), *TINY_SAC]
        assert main(argv) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("sampler.json", "meta_train_log.csv")
        }
        assert main(argv) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

    def test_exactly_one_seed(self, tmp_path, task_csv):
        assert main([
            "meta-train", str(task_csv), "--seed", "0,1",
            "--out", str(tmp_path / "m"), *TINY_SAC,
        ]) == 1

    def test_empty_seed_list(self, tmp_path, task_csv):
        assert main([
            "meta-train", str(task_csv), "--seed", "",
            "--out", str(tmp_path / "m"), *TINY_SAC,
        ]) == 1

    def test_missing_task_file(self, tmp_path):
        assert main([
            "meta-train", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "m"), *TINY_SAC,
        ]) == 2

    def test_bad_labels_are_data_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,label\n0.0,1.0,0\n1.0,0.0,2\n2.0,1.0,1\n", encoding="utf-8")
        assert main([
            "meta-train", str(bad), "--out", str(tmp_path / "m"), *TINY_SAC,
        ]) == 2


class TestTrain:
    def test_random_sampling_results_table(self, tmp_path, task_csv):
        out = tmp_path / "run"
        assert main([
            "train", str(task_csv), "--mode", "random-sampling",
            "--k", "3", "--seed", "0,1,2", "--out", str(out),
        ]) == 0
        config, header, rows = read_result_csv(out / "train_results.csv")
        assert header == ["seed", "test_aucprc"]
        assert [row[0] for row in rows] == ["0", "1", "2"]
        assert config["seed"] == [0, 1, 2]
        for row in rows:
            assert 0.0 <= float(row[1]) <= 1.0

    def test_task_csv_with_byte_order_mark(self, tmp_path, task_csv):
        # Excel's "CSV UTF-8" export starts with U+FEFF; with the label first, an
        # undropped mark would hide the label column's name
        rows = [line.split(",") for line in task_csv.read_text(encoding="utf-8").splitlines()]
        task = tmp_path / "bom.csv"
        text = "\ufeff" + "".join(",".join([row[-1], *row[:-1]]) + "\n" for row in rows)
        task.write_bytes(text.encode("utf-8"))
        out = tmp_path / "run"
        assert main([
            "train", str(task), "--mode", "random-sampling",
            "--k", "2", "--seed", "0", "--out", str(out),
        ]) == 0
        _, _, rows = read_result_csv(out / "train_results.csv")
        assert [row[0] for row in rows] == ["0"]

    def test_label_name_in_two_columns_is_a_data_error(self, tmp_path, task_csv):
        # the header save_csv(ds, path, label_column="x0") used to write; the first
        # x0 column holds the labels here, so reading it as the label ran without error
        rows = [line.split(",") for line in task_csv.read_text(encoding="utf-8").splitlines()[1:]]
        task = tmp_path / "twice.csv"
        task.write_text(
            "x0,x1,x0\n" + "".join(f"{y},{x1},{y}\n" for _, x1, y in rows), encoding="utf-8"
        )
        assert main([
            "train", str(task), "--label-column", "x0", "--mode", "random-sampling",
            "--k", "2", "--seed", "0", "--out", str(tmp_path / "run"),
        ]) == 2

    def test_policy_mode_uses_saved_sampler(self, tmp_path, task_csv, sampler_path):
        out = tmp_path / "run"
        assert main([
            "train", str(task_csv), "--mode", "policy",
            "--sampler", str(sampler_path),
            "--k", "3", "--seed", "0,1", "--out", str(out),
        ]) == 0
        _, _, rows = read_result_csv(out / "train_results.csv")
        assert len(rows) == 2

    @pytest.fixture
    def sampler_7_bins(self, tmp_path):
        path = tmp_path / "sampler.json"
        save_sampler(random_sampler(7, 0.3, seed=2), path)
        return path

    @pytest.mark.parametrize("knobs", [[], ["--bins", "7", "--sigma", "0.3"]])
    def test_policy_mode_records_the_samplers_bins_and_sigma(
        self, tmp_path, task_csv, sampler_7_bins, knobs
    ):
        # the defaults, 5 and 0.2, used to be recorded though the sampler's 7 and 0.3 ran
        out = tmp_path / "run"
        assert main([
            "train", str(task_csv), "--mode", "policy", "--sampler", str(sampler_7_bins),
            "--k", "2", "--seed", "0", "--out", str(out), *knobs,
        ]) == 0
        config, _, _ = read_result_csv(out / "train_results.csv")
        assert (config["bins"], config["sigma"]) == (7, 0.3)

    @pytest.mark.parametrize("key, value", [("bins", 3), ("bins", 5), ("sigma", 0.9)])
    @pytest.mark.parametrize("source", ["flag", "config file"])
    def test_policy_mode_refuses_other_bins_or_sigma_before_any_fit(
        self, tmp_path, capsys, no_tree_fit, task_csv, sampler_7_bins, key, value, source
    ):
        out = tmp_path / "run"
        argv = ["train", str(task_csv), "--sampler", str(sampler_7_bins), "--out", str(out)]
        if source == "flag":
            argv += [f"--{key}", str(value)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: value}), encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 1
        assert f"--{key} {value!r} differs from the sampler's" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, key",
        [("policy", "mu"), ("random-policy", "sampler"), ("random-policy", "mu"),
         ("random-sampling", "sampler"), ("random-sampling", "mu"), ("random-sampling", "bins"),
         ("random-sampling", "sigma"), ("constant", "sampler"), ("constant", "bins")],
    )
    @pytest.mark.parametrize("source", ["flag", "config file"])
    def test_a_knob_the_mode_does_not_use_is_refused_before_the_task_is_read(
        self, tmp_path, capsys, mode, key, source
    ):
        # these used to run and be recorded in the result CSV though the mode ignored them
        value = {"sampler": "nothere.json", "mu": 0.1, "bins": 3, "sigma": 0.9}[key]
        out = tmp_path / "run"
        # an absent task (or sampler) file would exit 2 were it read first
        argv = ["train", str(tmp_path / "absent.csv"), "--mode", mode, "--out", str(out)]
        if source == "flag":
            argv += [f"--{key}", str(value)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: value}), encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"configuration error: --mode {mode} does not use --{key}\n"
        )
        assert not out.exists()

    def test_every_knob_the_mode_does_not_use_is_named(self, tmp_path, capsys, task_csv):
        out = tmp_path / "run"
        assert main([
            "train", str(task_csv), "--mode", "random-sampling", "--bins", "3", "--sigma", "0.9",
            "--mu", "0.1", "--sampler", "nothere.json", "--out", str(out),
        ]) == 1
        assert "does not use --bins, --mu, --sampler, --sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_mode(self, tmp_path, task_csv):
        out = tmp_path / "run"
        assert main([
            "train", str(task_csv), "--mode", "constant", "--mu", "0.8",
            "--k", "3", "--seed", "0", "--out", str(out),
        ]) == 0

    def test_gnb_base_learner(self, tmp_path, task_csv):
        out = tmp_path / "run"
        assert main([
            "train", str(task_csv), "--mode", "random-sampling",
            "--base-learner", "gnb", "--k", "3", "--seed", "0", "--out", str(out),
        ]) == 0

    def test_policy_mode_requires_sampler(self, tmp_path, task_csv):
        assert main([
            "train", str(task_csv), "--mode", "policy",
            "--k", "3", "--seed", "0", "--out", str(tmp_path / "run"),
        ]) == 1

    def test_unknown_mode_rejected(self, tmp_path, task_csv):
        assert main([
            "train", str(task_csv), "--mode", "bogus",
            "--out", str(tmp_path / "run"),
        ]) == 1

    def test_unknown_base_learner_rejected(self, tmp_path, task_csv):
        assert main([
            "train", str(task_csv), "--mode", "random-sampling",
            "--base-learner", "forest", "--seed", "0", "--out", str(tmp_path / "run"),
        ]) == 1

    def test_rerun_is_byte_identical(self, tmp_path, task_csv):
        out = tmp_path / "run"
        argv = [
            "train", str(task_csv), "--mode", "random-sampling",
            "--k", "3", "--seed", "0,1", "--out", str(out),
        ]
        assert main(argv) == 0
        first = (out / "train_results.csv").read_bytes()
        assert main(argv) == 0
        assert (out / "train_results.csv").read_bytes() == first


class TestAblation:
    def test_summary_covers_modes_and_sizes(self, tmp_path, task_csv):
        out = tmp_path / "ablation"
        assert main([
            "ablation", str(task_csv), "--k", "3", "--seed", "0,1",
            "--out", str(out), *TINY_SAC[2:],
        ]) == 0
        config, header, rows = read_result_csv(out / "ablation_summary.csv")
        assert header == ["k", "mode", "mean_aucprc", "std_aucprc", "delta_pct"]
        assert [(row[0], row[1]) for row in rows] == [
            ("3", "policy"), ("3", "random-policy"), ("3", "random-sampling"),
        ]
        policy_row = rows[0]
        assert float(policy_row[4]) == 0.0  # delta is measured against policy
        _, _, raw = read_result_csv(out / "ablation_raw.csv")
        assert len(raw) == 3 * 2  # modes x seeds

    def test_scores_are_the_experiment_points_with_the_given_bins_and_sigma(self, tmp_path):
        # a 300-row task, on which the random-policy arm scores differently at
        # SacConfig's bins and sigma, so a sweep that dropped them would show
        task = tmp_path / "task.csv"
        assert main(["generate-toy", "--majority", "300", "--minority", "40", "--seed", "3",
                     "--out", str(task)]) == 0
        out = tmp_path / "ablation"
        assert main([
            "ablation", str(task), "--k", "3", "--seed", "0,1", "--bins", "3", "--sigma", "0.3",
            "--out", str(out), *TINY_SAC[2:],
        ]) == 0
        config, _, raw = read_result_csv(out / "ablation_raw.csv")
        assert (config["bins"], config["sigma"]) == (3, 0.3)
        ds, modes, seeds = load_csv(task), ("policy", "random-policy", "random-sampling"), [0, 1]
        sac = SacConfig(gradient_steps=4, random_steps=4, batch_size=4, replay_capacity=32,
                        ensemble_size=3, bins=3, sigma=0.3)
        _, scores = experiment_point(ds, SplitSpec(), 0, seeds, modes, sac)
        assert [(row[1], int(row[2]), float(row[3])) for row in raw] == [
            (mode, seed, score) for mode in modes for seed, score in zip(seeds, scores[mode])
        ]
        fallback = score_arms(ds, SplitSpec(), seeds, [("r", "random-policy", None)], n_members=3)
        assert fallback["r"] != scores["random-policy"]


class TestNoiseSweep:
    def test_summary_covers_ratios_and_modes(self, tmp_path, task_csv):
        out = tmp_path / "noise"
        assert main([
            "noise-sweep", str(task_csv), "--k", "3", "--seed", "0,1",
            "--ratios", "0,0.25", "--out", str(out), *TINY_SAC[2:],
        ]) == 0
        _, header, rows = read_result_csv(out / "noise_summary.csv")
        assert header == ["ratio", "mode", "mean_aucprc", "std_aucprc"]
        assert [(row[0], row[1]) for row in rows] == [
            ("0.0", "policy"), ("0.0", "random-sampling"),
            ("0.25", "policy"), ("0.25", "random-sampling"),
        ]
        _, _, raw = read_result_csv(out / "noise_raw.csv")
        assert len(raw) == 2 * 2 * 2  # ratios x modes x seeds


class TestTransfer:
    def test_requires_sampler(self, tmp_path, other_task_csv):
        assert main([
            "transfer", str(other_task_csv), "--k", "3", "--seed", "0",
            "--out", str(tmp_path / "t"),
        ]) == 1

    def test_transfer_only(self, tmp_path, other_task_csv, sampler_path):
        out = tmp_path / "t"
        assert main([
            "transfer", str(other_task_csv), "--sampler", str(sampler_path),
            "--k", "3", "--seed", "0,1", "--out", str(out),
        ]) == 0
        _, header, rows = read_result_csv(out / "transfer_summary.csv")
        assert header == ["mode", "mean_aucprc", "std_aucprc", "delta_pct_vs_reference"]
        assert len(rows) == 1 and rows[0][0] == "transfer"
        _, _, raw = read_result_csv(out / "transfer_raw.csv")
        assert len(raw) == 2

    def test_transfer_against_reference(self, tmp_path, other_task_csv, sampler_path):
        out = tmp_path / "t"
        assert main([
            "transfer", str(other_task_csv), "--sampler", str(sampler_path),
            "--reference-sampler", str(sampler_path),
            "--k", "3", "--seed", "0,1", "--out", str(out),
        ]) == 0
        _, _, rows = read_result_csv(out / "transfer_summary.csv")
        assert [row[0] for row in rows] == ["transfer", "reference"]
        # same sampler on both sides: identical seeds give identical scores
        assert float(rows[0][3]) == 0.0


class TestPinnedOutputBytes:
    """Every file the six subcommands write, pinned by its sha256.

    The commands run in a temporary working directory on relative paths, so
    the comment rows hold no temporary directory. Like the hashes of
    test_sac.py's TestMetaTrain::test_pinned_fingerprints, the digests pin
    float arithmetic that runs through numpy's BLAS: a build that rounds a
    matrix product differently changes the sampler and every policy score.
    """

    RUNS = [
        ["generate-toy", "--majority", "300", "--minority", "40", "--seed", "3",
         "--out", "task.csv"],
        ["generate-toy", "--majority", "300", "--minority", "40", "--overlap", "0.6",
         "--seed", "4", "--out", "other.csv"],
        ["meta-train", "task.csv", "--out", "meta", *TINY_SAC],
        ["train", "task.csv", "--sampler", "meta/sampler.json", "--k", "3", "--seed", "0,1",
         "--out", "train"],
        ["ablation", "task.csv", "--k", "3,4", "--seed", "0,1", "--out", "ablation",
         *TINY_SAC[2:]],
        ["noise-sweep", "task.csv", "--k", "3", "--ratios", "0,0.25", "--seed", "0,1",
         "--out", "noise", *TINY_SAC[2:]],
        ["transfer", "other.csv", "--sampler", "meta/sampler.json",
         "--reference-sampler", "meta/sampler.json", "--k", "3", "--seed", "0,1",
         "--out", "transfer"],
    ]

    DIGESTS = {
        "ablation/ablation_raw.csv": "e6f53ee659f692943fb99d4e2bc36b66e03c4c490d5db4c9c6a3baaa6e87e45d",
        "ablation/ablation_summary.csv": "287250a95d98d63b4cb0720064190be9004de975cc6ca1ff2c12c1fd779d6238",
        "meta/meta_train_log.csv": "922b4f7c1da791ee313bcdeb8e11d3302669e0bed5593e772194f4606eae3e27",
        "meta/sampler.json": "5a1fe7a8fe1695633b47935112752de704d9ddddfd01c713d170f892862f73aa",
        "noise/noise_raw.csv": "a5efa747b54ba7b34cfbb46ef281b72d727a73364675f1fa021e0b11c40a856d",
        "noise/noise_summary.csv": "11caca1aa120c7c0a694c7a45bc1592fdbac8fecf7b2ae42724d99008d912de4",
        "other.csv": "4648684e689939939cc15213c826ab8d5c09f69ef76af7e8b544145f4f62e0ad",
        "task.csv": "e1a9167a3ce7b31c24ab62e0c17dcdb16e7b81da48457909d3a12054d5674a2a",
        "train/train_results.csv": "b8d21e1008cb343be749c70f11513926f56aa1fe185830c26975e31aabae0f3b",
        "transfer/transfer_raw.csv": "846d46dbb352ba52a31ad3aace4859cf76d86964b328f61ab7a3119b26bb2bce",
        "transfer/transfer_summary.csv": "c10d95a8a2bda67ce09c19f8fb2e4de3d9368d22cef88cd4d2e6b5807ee8e455",
    }

    def test_output_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in self.RUNS:
            assert main(argv) == 0, argv
        written = {
            path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path().rglob("*")) if path.is_file()
        }
        assert written == self.DIGESTS, numpy_kernels()


def run_cli(argv):
    """Run the console entry point in a fresh interpreter; return the finished process."""
    return subprocess.run(
        [sys.executable, "-m", "metasampler.cli", *argv],
        capture_output=True, text=True, encoding="utf-8",
    )


class TestValueRanges:
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--mode", "constant", "--mu", "2"],
            ["train", "--mode", "random-sampling", "--k", "0"],
            ["train", "--mode", "random-policy", "--bins", "0"],
            ["train", "--mode", "random-policy", "--sigma", "0"],
            ["noise-sweep", "--ratios", "1.0"],
            ["ablation", "--k", "2,0"],
            ["train", "--mode", "constant", "--sigma", "inf"],
            ["meta-train", "--sigma", "inf", *TINY_SAC],
        ],
        ids=["mu", "k", "bins", "sigma", "ratios", "k-list", "sigma-inf", "sac-sigma-inf"],
    )
    def test_out_of_range_is_config_error(self, tmp_path, task_csv, argv):
        command, *flags = argv
        out = tmp_path / "out"
        result = run_cli([command, str(task_csv), *flags, "--out", str(out)])
        assert result.returncode == 1, result.stderr
        assert "configuration error" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("generate-toy", {"majority": None}),
            ("meta-train", {"split_seed": "x"}),
            ("ablation", {"meta_seed": "x"}),
        ],
    )
    def test_non_number_in_config_file(self, tmp_path, task_csv, command, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        task = [] if command == "generate-toy" else [str(task_csv)]
        out = tmp_path / "out"
        result = run_cli([command, *task, "--config", str(config), "--out", str(out)])
        assert result.returncode == 1, result.stderr
        assert "configuration error" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("train", {"k": 2.9}),
            ("train", {"bins": 3.5}),
            ("train", {"k": True}),
            ("train", {"seed": [0, 1.5]}),
            ("generate-toy", {"seed": 2.5}),
            ("generate-toy", {"majority": 40.5}),
            ("meta-train", {"lr_decay_steps": 2.5}),
            ("meta-train", {"episodes": 1.5}),
            ("ablation", {"k": [2, 2.5]}),
            ("noise-sweep", {"meta_seed": 0.5}),
        ],
        ids=[
            "k", "bins", "bool-k", "seed-list", "toy-seed", "toy-majority",
            "sac-int", "sac-optional-int", "k-list", "meta-seed",
        ],
    )
    def test_non_integer_in_config_file(self, tmp_path, capsys, task_csv, command, doc):
        # each run would succeed with the value truncated, so only the cast can refuse it
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        task = [] if command == "generate-toy" else [str(task_csv)]
        flags = {
            "train": ["--mode", "random-policy"],
            "generate-toy": ["--minority", "4"] + (["--majority", "20"] if "seed" in doc else []),
            "meta-train": TINY_SAC,
            "ablation": [*TINY_SAC[2:], "--seed", "0"],
            "noise-sweep": [*TINY_SAC, "--seed", "0", "--ratios", "0"],
        }[command]
        out = tmp_path / "out"
        assert main([command, *task, "--config", str(config), *flags, "--out", str(out)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("train", {"mu": True}),
            ("train", {"sigma": True}),
            ("generate-toy", {"overlap": True}),
            ("meta-train", {"tau": True}),
            ("meta-train", {"alpha": False}),
            ("ablation", {"lr_decay_ratio": True}),
            ("noise-sweep", {"gamma": True}),
        ],
        ids=["mu", "sigma", "toy-overlap", "sac-tau", "sac-alpha", "ablation", "noise-sweep"],
    )
    def test_boolean_float_in_config_file(self, tmp_path, capsys, task_csv, command, doc):
        # each run would succeed with the boolean read as 1.0 or 0.0
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        task = [] if command == "generate-toy" else [str(task_csv)]
        flags = {
            "train": ["--mode", "constant" if "mu" in doc else "random-policy"],
            "generate-toy": ["--minority", "4", "--majority", "20"],
            "meta-train": TINY_SAC,
            "ablation": [*TINY_SAC[2:], "--seed", "0", "--k", "2"],
            "noise-sweep": [*TINY_SAC, "--seed", "0", "--ratios", "0"],
        }[command]
        out = tmp_path / "out"
        assert main([command, *task, "--config", str(config), *flags, "--out", str(out)]) == 1
        assert "not a number" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_sac_float_in_config_file(self, tmp_path, capsys, task_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": "nan"}), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["meta-train", str(task_csv), "--config", str(config), *TINY_SAC, "--out", str(out)]
        assert main(argv) == 1
        assert "alpha must be in [0, inf), got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_in_config_file_runs(self, tmp_path, task_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": 3.0, "bins": 4.0}), encoding="utf-8")
        out = tmp_path / "out"
        assert main([
            "train", str(task_csv), "--mode", "random-policy", "--config", str(config),
            "--out", str(out),
        ]) == 0
        assert (out / "train_results.csv").exists()

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("generate-toy", {"out": 5}),
            ("train", {"out": ["x"], "mode": "random-sampling"}),
            ("train", {"sampler": 7, "mode": "policy"}),
            ("transfer", {"sampler": 7}),
            ("transfer", {"sampler": "s.json", "reference_sampler": 7}),
            ("train", {"base_learner": ["tree"], "mode": "random-sampling"}),
            ("meta-train", {"base_learner": 1}),
            ("train", {"mode": ["constant"]}),
            ("train", {"mode": None}),
            ("train", {"label_column": True, "mode": "random-sampling"}),
            ("train", {"label_column": False, "mode": "random-sampling"}),
            ("meta-train", {"label_column": 2.0}),
            ("noise-sweep", {"label_column": None}),
        ],
        ids=[
            "toy-out", "out-list", "sampler", "transfer-sampler", "reference-sampler",
            "base-learner-list", "base-learner-number", "mode-list", "mode-null",
            "label-true", "label-false", "label-float", "label-null",
        ],
    )
    def test_non_text_in_config_file(self, tmp_path, capsys, task_csv, command, doc):
        # before: a traceback, or (label_column true) column 1 silently read as the label
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        task = [] if command == "generate-toy" else [str(task_csv)]
        out = [] if "out" in doc else ["--out", str(tmp_path / "out")]
        seeds = [] if command in ("generate-toy", "meta-train") else ["--seed", "0"]
        flags = TINY_SAC if command in ("meta-train", "noise-sweep") else []
        assert main([command, *task, "--config", str(config), *seeds, *flags, *out]) == 1
        assert "must be text" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_label_column_position_in_config_file(self, tmp_path, capsys, task_csv):
        # a position means the same from the file as from --label-column: a header name
        argv = ["train", str(task_csv), "--mode", "random-sampling", "--k", "3", "--seed", "0"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"label_column": 2}), encoding="utf-8")
        assert main([*argv, "--config", str(config), "--out", str(tmp_path / "position")]) == 1
        assert "must be text" in capsys.readouterr().err
        assert not (tmp_path / "position").exists()


# (command, fixed flags, key, flag text, config-file value) of each parity case
PARITY_CASES = {
    "k": ("train", ["--mode", "random-sampling", "--seed", "0"], "k", "3", 3),
    "k-integral-float": ("train", ["--mode", "random-sampling", "--seed", "0"], "k", "3", 3.0),
    "mu": ("train", ["--mode", "constant", "--k", "3", "--seed", "0"], "mu", "0.8", 0.8),
    "bins": ("train", ["--mode", "random-policy", "--k", "3", "--seed", "0"], "bins", "4", 4),
    "sigma": ("train", ["--mode", "random-policy", "--k", "3", "--seed", "0"], "sigma", "0.3", 0.3),
    "sac-int": ("meta-train", TINY_SAC, "lr_decay_steps", "2", 2),
    "sac-float": ("meta-train", TINY_SAC, "gamma", "0.9", 0.9),
    "episodes": ("meta-train", TINY_SAC, "episodes", "2", 2),
    "split-seed": ("meta-train", TINY_SAC, "split_seed", "3", 3),
    "meta-seed": ("noise-sweep", [*TINY_SAC, "--seed", "0", "--ratios", "0"], "meta_seed", "1", 1),
}


class TestFlagAndConfigFileParity:
    """A flag and the same value in a config file give byte-identical result files."""

    @staticmethod
    def outputs(argv, out):
        assert main([*argv, "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    @pytest.mark.parametrize("case", list(PARITY_CASES))
    def test_number_key(self, tmp_path, task_csv, case):
        command, fixed, key, text, file_value = PARITY_CASES[case]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: file_value}), encoding="utf-8")
        argv = [command, str(task_csv), *fixed]
        out = tmp_path / "out"  # the out path is recorded, so both runs share it
        from_flag = self.outputs([*argv, "--" + key.replace("_", "-"), text], out)
        from_file = self.outputs([*argv, "--config", str(config)], out)
        assert from_file == from_flag
        result_csv = next(path for path in out.iterdir() if path.suffix == ".csv")
        assert json.dumps(read_result_csv(result_csv)[0][key]) == text  # the number that ran

    def test_label_column(self, tmp_path, task_csv):
        renamed = tmp_path / "renamed.csv"
        header, rest = task_csv.read_text(encoding="utf-8").split("\n", 1)
        assert header == "x0,x1,label"
        renamed.write_text("x0,x1,target\n" + rest, encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"label_column": "target"}), encoding="utf-8")
        argv = ["train", str(renamed), "--mode", "random-sampling", "--k", "3", "--seed", "0"]
        out = tmp_path / "out"
        from_flag = self.outputs([*argv, "--label-column", "target"], out)
        from_file = self.outputs([*argv, "--config", str(config)], out)
        assert from_file == from_flag


class TestNegativeSeeds:
    """Every seed key refuses a negative value before any task file is read."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate-toy", "--seed", "-1"],
            ["train", "--mode", "random-sampling", "--seed", "-3"],
            ["transfer", "--seed", "0,-1"],
            ["meta-train", "--split-seed", "-1"],
            ["ablation", "--meta-seed", "-2"],
        ],
        ids=["toy-seed", "seed", "seed-list", "split-seed", "meta-seed"],
    )
    def test_negative_seed_flag(self, tmp_path, capsys, argv):
        command, *flags = argv
        # an absent task file would exit 2 if it were read first
        task = [] if command == "generate-toy" else [str(tmp_path / "absent.csv")]
        out = tmp_path / "out"
        assert main([command, *task, *flags, "--out", str(out)]) == 1
        assert "must be at least 0, got -" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_in_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": -1}), encoding="utf-8")
        out = tmp_path / "toy.csv"
        assert main(["generate-toy", "--config", str(config), "--out", str(out)]) == 1
        assert "must be at least 0, got -" in capsys.readouterr().err
        assert not out.exists()


class TestUnreadableInputs:
    """A config file, task CSV or sampler that cannot be read exits with a one-line message."""

    @staticmethod
    def not_utf8(path, text):
        path.write_bytes(text.encode() + b"\xff\xfe\n")
        return path

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_config_file(self, tmp_path, capsys, kind):
        config = tmp_path / "config"
        if kind == "directory":
            config.mkdir()
        else:
            self.not_utf8(config, '{"majority": 40}')
        out = tmp_path / "toy.csv"
        assert main(["generate-toy", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind", ["directory", "not-utf8", "cell-over-csv-limit", "finite-cell-over-csv-limit"]
    )
    def test_task_csv(self, tmp_path, capsys, task_csv, kind):
        task = tmp_path / "task.csv"
        text = task_csv.read_text(encoding="utf-8")
        if kind == "directory":
            task.mkdir()
        elif kind == "not-utf8":
            self.not_utf8(task, text)
        elif kind == "cell-over-csv-limit":
            # the first column's name is longer than csv's 131,072-character field limit
            task.write_text("x" * 140_000 + text[text.index(","):], encoding="utf-8")
        else:  # so is the first feature cell, though it reads as a finite 0.0...01
            body = text.index("\n") + 1
            cell = "0." + "0" * 140_000 + "1"
            task.write_text(text[:body] + cell + text[text.index(",", body):], encoding="utf-8")
        out = tmp_path / "out"
        argv = ["train", str(task), "--mode", "random-sampling", "--seed", "0"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error") and err.count("\n") == 1
        assert ("cannot read as CSV" in err) == kind.endswith("cell-over-csv-limit")
        assert not out.exists()

    def test_task_csv_without_feature_columns(self, tmp_path, capsys):
        task = tmp_path / "task.csv"
        task.write_text("label\n0\n1\n0\n1\n0\n0\n1\n0\n0\n1\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["train", str(task), "--mode", "random-sampling", "--k", "2", "--seed", "0"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error") and "no feature columns" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "transfer"])
    def test_sampler_directory(self, tmp_path, capsys, task_csv, command):
        sampler = tmp_path / "sampler"
        sampler.mkdir()
        out = tmp_path / "out"
        assert main(sampler_argv(command, task_csv, sampler, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error") and err.count("\n") == 1
        assert not out.exists()


@pytest.fixture(scope="module")
def bad_sampler_files(workdir, sampler_path):
    """Sampler files that are not JSON, lack the policy, hold a bad scalar or a NaN weight."""
    doc = json.loads(sampler_path.read_text(encoding="utf-8"))
    files = {
        "not-json": "{not json",
        "no-policy": json.dumps({key: v for key, v in doc.items() if key != "policy"}),
        # 1e400 parses as inf; 5.5 bins would load as 5, matching the policy's 10 inputs
        "infinite-sigma": json.dumps({**doc, "sigma": "X"}).replace('"X"', "1e400"),
        "fractional-bins": json.dumps({**doc, "bins": 5.5}),
        "boolean-sigma": json.dumps({**doc, "sigma": True}),
        # finite and positive, but the Gaussian's peak 1 / (sigma sqrt(2 pi)) overflows
        "subnormal-sigma": json.dumps({**doc, "sigma": 1e-320}),
        # the network shape is fixed: relu hidden layers, a linear head
        "tanh-activations": json.dumps(
            {**doc, "policy": {**doc["policy"], "activations": ["tanh", "linear"]}}
        ),
        # weights shaped for a hidden width of 1, which True must not stand for
        "boolean-layer-size": json.dumps({**doc, "policy": {
            **doc["policy"], "layer_sizes": [10, True, 2], "weights": [[[0.1]] * 10, [[0.1, 0.2]]],
            "biases": [[0.0], [0.0, 0.0]],
        }}),
    }
    doc["policy"]["weights"][0][0][0] = float("nan")
    files["nan-weight"] = json.dumps(doc)
    paths = {}
    for name, text in files.items():
        paths[name] = workdir / f"sampler-{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    return paths


def sampler_argv(command, task, sampler, out):
    if command == "train":
        return ["train", str(task), "--mode", "policy", "--sampler", str(sampler),
                "--k", "3", "--seed", "0", "--out", str(out)]
    return ["transfer", str(task), "--sampler", str(sampler),
            "--k", "3", "--seed", "0", "--out", str(out)]


class TestSamplerFiles:
    @pytest.mark.parametrize("command", ["train", "transfer"])
    @pytest.mark.parametrize(
        "kind", ["not-json", "no-policy", "infinite-sigma", "fractional-bins", "boolean-sigma",
                 "tanh-activations", "boolean-layer-size"]
    )
    def test_malformed_sampler_is_data_error(
        self, tmp_path, capsys, task_csv, bad_sampler_files, command, kind
    ):
        out = tmp_path / "out"
        assert main(sampler_argv(command, task_csv, bad_sampler_files[kind], out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error") and err.count("\n") == 1
        assert not out.exists()


class TestNumericalFailureExitCode:
    """A NaN forced into a network exits 3 and writes no result file.

    Every subcommand that runs a network is covered: meta-train, ablation and
    noise-sweep overflow their networks with a huge learning rate; train (policy
    mode) and transfer load a sampler file with a NaN weight. generate-toy runs
    no network.
    """

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warning
    @pytest.mark.parametrize("command", ["meta-train", "ablation", "noise-sweep"])
    def test_overflowing_learning_rate(self, tmp_path, capsys, task_csv, command):
        out = tmp_path / "out"
        assert main([
            command, str(task_csv), "--lr", "1e200", "--seed", "0",
            "--out", str(out), *TINY_SAC,
        ]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_sigma(self, tmp_path, capsys, task_csv):
        out = tmp_path / "out"
        assert main([
            "train", str(task_csv), "--mode", "constant", "--mu", "0.5",
            "--sigma", "1e-320", "--k", "3", "--out", str(out),
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite sampling weights")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["meta-train", "ablation", "noise-sweep"])
    def test_subnormal_sigma_in_a_config_fits_no_tree(
        self, tmp_path, capsys, no_tree_fit, task_csv, command
    ):
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sigma": 1e-320}), encoding="utf-8")
        assert main([
            command, str(task_csv), "--config", str(config), "--seed", "0",
            "--out", str(out), *TINY_SAC,
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite sampling weights")
        assert not out.exists()

    def test_subnormal_sigma_fits_no_tree(self, tmp_path, capsys, no_tree_fit, task_csv):
        out = tmp_path / "out"
        assert main([
            "train", str(task_csv), "--mode", "constant", "--mu", "0.5",
            "--sigma", "1e-320", "--k", "3", "--out", str(out),
        ]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: non-finite sampling weights (sigma=1e-320)\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "transfer"])
    def test_subnormal_sigma_in_a_sampler_file_fits_no_tree(
        self, tmp_path, capsys, no_tree_fit, task_csv, bad_sampler_files, command
    ):
        out = tmp_path / "out"
        assert main(sampler_argv(command, task_csv, bad_sampler_files["subnormal-sigma"], out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite sampling weights")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "transfer"])
    def test_non_finite_sampler_file(
        self, tmp_path, capsys, task_csv, bad_sampler_files, command
    ):
        out = tmp_path / "out"
        assert main(sampler_argv(command, task_csv, bad_sampler_files["nan-weight"], out)) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()


class TestUnwritableOut:
    """An --out that cannot be written exits 1 with one line, before any task is read."""

    @staticmethod
    def assert_config_error(capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1

    def test_generate_toy_onto_a_directory(self, tmp_path, capsys):
        argv = ["generate-toy", "--majority", "20", "--minority", "4", "--out", str(tmp_path)]
        self.assert_config_error(capsys, argv)
        assert list(tmp_path.iterdir()) == []

    def test_generate_toy_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("keep\n", encoding="utf-8")
        self.assert_config_error(capsys, ["generate-toy", "--out", str(blocker / "toy.csv")])
        assert blocker.read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.parametrize("command", ["train", "meta-train"])
    @pytest.mark.parametrize("task", ["task", "missing"])
    @pytest.mark.parametrize("where", ["file", "under-file"])
    def test_results_onto_a_file(self, tmp_path, capsys, task_csv, command, task, where):
        blocker = tmp_path / "out"
        blocker.write_text("keep\n", encoding="utf-8")
        out = blocker if where == "file" else blocker / "run"
        # a missing task would be a data error (exit 2) were it read first
        path = task_csv if task == "task" else tmp_path / "missing.csv"
        flags = ["--mode", "random-sampling"] if command == "train" else TINY_SAC
        self.assert_config_error(capsys, [command, str(path), *flags, "--out", str(out)])
        assert blocker.read_text(encoding="utf-8") == "keep\n"


SAC_FLAGS = {
    "--gamma": ("gamma", None),
    "--tau": ("tau", None),
    "--alpha": ("alpha", None),
    "--lr": ("lr", None),
    "--lr-decay-steps": ("lr_decay_steps", None),
    "--lr-decay-ratio": ("lr_decay_ratio", None),
    "--batch-size": ("batch_size", None),
    "--replay-capacity": ("replay_capacity", None),
    "--gradient-steps": ("gradient_steps", None),
    "--random-steps": ("random_steps", None),
    "--episodes": ("episodes", None),
    "--bins": ("bins", None),
    "--sigma": ("sigma", None),
}

# option string -> (dest, type) of every flag, in order; every flag is plain text
FLAG_SURFACE = {
    "generate-toy": {
        "--config": ("config", None),
        "--majority": ("majority", None),
        "--minority": ("minority", None),
        "--overlap": ("overlap", None),
        "--seed": ("seed", None),
        "--out": ("out", None),
    },
    "meta-train": {
        "--config": ("config", None),
        "--label-column": ("label_column", None),
        "--split": ("split", None),
        "--split-seed": ("split_seed", None),
        "--seed": ("seed", None),
        "--k": ("k", None),
        "--base-learner": ("base_learner", None),
        "--out": ("out", None),
        **SAC_FLAGS,
    },
    "train": {
        "--config": ("config", None),
        "--label-column": ("label_column", None),
        "--split": ("split", None),
        "--seed": ("seed", None),
        "--k": ("k", None),
        "--mode": ("mode", None),
        "--sampler": ("sampler", None),
        "--mu": ("mu", None),
        "--bins": ("bins", None),
        "--sigma": ("sigma", None),
        "--base-learner": ("base_learner", None),
        "--out": ("out", None),
    },
    "ablation": {
        "--config": ("config", None),
        "--label-column": ("label_column", None),
        "--split": ("split", None),
        "--seed": ("seed", None),
        "--meta-seed": ("meta_seed", None),
        "--k": ("k", None),
        "--base-learner": ("base_learner", None),
        "--out": ("out", None),
        **SAC_FLAGS,
    },
    "noise-sweep": {
        "--config": ("config", None),
        "--label-column": ("label_column", None),
        "--split": ("split", None),
        "--seed": ("seed", None),
        "--meta-seed": ("meta_seed", None),
        "--k": ("k", None),
        "--ratios": ("ratios", None),
        "--base-learner": ("base_learner", None),
        "--out": ("out", None),
        **SAC_FLAGS,
    },
    "transfer": {
        "--config": ("config", None),
        "--label-column": ("label_column", None),
        "--split": ("split", None),
        "--seed": ("seed", None),
        "--k": ("k", None),
        "--sampler": ("sampler", None),
        "--reference-sampler": ("reference_sampler", None),
        "--base-learner": ("base_learner", None),
        "--out": ("out", None),
    },
}

# (dest, nargs) of each positional argument
POSITIONALS = {
    "generate-toy": [],
    "meta-train": [("tasks", "+")],
    "train": [("task", None)],
    "ablation": [("task", None)],
    "noise-sweep": [("task", None)],
    "transfer": [("task", None)],
}


class TestFlagSurface:
    def test_flags_dests_and_types_are_pinned(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(FLAG_SURFACE)
        for command, expected in FLAG_SURFACE.items():
            actions = [
                a for a in sub.choices[command]._actions if not isinstance(a, argparse._HelpAction)
            ]
            flags = [a for a in actions if a.option_strings]
            assert all(len(a.option_strings) == 1 for a in flags), command
            assert [(a.option_strings[0], a.dest, a.type) for a in flags] == [
                (option, dest, kind) for option, (dest, kind) in expected.items()
            ], command
            positionals = [(a.dest, a.nargs) for a in actions if not a.option_strings]
            assert positionals == POSITIONALS[command], command
            for a in flags:
                assert a.choices is None, (command, a.dest)


class TestConsoleScript:
    def test_generate_toy_subprocess(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "metasampler.cli", "generate-toy",
             "--majority", "30", "--minority", "6", "--out", str(tmp_path / "toy.csv")],
            capture_output=True, text=True, encoding="utf-8",
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "toy.csv").exists()

    def test_missing_subcommand_is_config_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "metasampler.cli"],
            capture_output=True, text=True, encoding="utf-8",
        )
        assert result.returncode == 1
