import json
import math

import numpy as np
import pytest

from seqssl import cli
from seqssl import trainer as tr
from seqssl.synthgen import DatasetConfig, SynthDataset


TINY = {
    "train": {"clip_len": 4, "strides": [2, 4, 8], "d_h": 6, "d_e": 4,
              "d_k": 5, "bank_capacity": 16, "epochs": 1, "b_l": 1, "b_u": 2},
    "dataset": {"n_classes": 4, "per_class": 4, "labeled_fraction": 0.5,
                "d_in": 4, "video_len": 40, "noise": 0.05, "seed": 0},
    "seeds": [0],
}


# TINY without a dataset seed: the first seed seeds the dataset
TINY_NO_DATASET_SEED = {**TINY, "dataset": {
    k: v for k, v in TINY["dataset"].items() if k != "seed"}}


# the paper's step hyperparameters that are trainer constants: a spec that
# names one is refused as naming an unknown option
FIXED_HYPERPARAMETERS = ("tau", "tau_s", "tau_t", "epsilon", "beta", "lr",
                         "momentum", "weight_decay", "lr_drop_epochs",
                         "ema_momentum")


# (section, key, value): each makes TINY an invalid config; a key of None
# replaces the whole section with the value
INVALID_OPTIONS = [
    ("train", "strides", [2]),
    ("train", "strides", [2, 4, 8, 16]),
    ("train", "strides", [2, "4", 8]),
    ("train", "strides", 8),
    ("train", "epochs", "1"),
    ("train", "epochs", True),
    ("train", "epochs", 1.0),
    ("train", "delta", "0.3"),
    ("train", "mu1", False),
    ("train", "use_acl", 1),
    ("ablation", "use_mtl", "yes"),
    ("dataset", "n_classes", 7),
    ("dataset", "labeled_fraction", 0.0),
    ("dataset", "noise", "0.05"),
    ("train", "epochs", 0),
    ("train", "b_u", 0),
    ("train", "b_l", 0),
    ("train", "clip_len", 0),
    ("train", "bank_capacity", 0),
    ("train", "n_scales", 0),
    ("train", "d_h", 0),
    ("train", "d_e", -1),
    ("train", "d_k", 0),
    ("train", "checkpoint_every", 0),
    ("train", "strides", [2, 0, 8]),
    ("ablation", "use_acll", False),
    ("ablation", None, [1]),
    ("train", None, [1]),
    ("seeds", None, [0.7]),
    ("seeds", None, ["3"]),
    ("seeds", None, [True]),
    ("seeds", None, [-1]),
    ("seeds", None, 3),
    ("dataset", "n_classes", 0),
    ("dataset", "n_classes", -2),
    ("dataset", "per_class", 0),
    ("dataset", "d_in", 0),
    ("dataset", "noise", -1.0),
    ("dataset", "seed", -1),
    ("dataset", "video_len", 24),
    ("dataset", "labeled_fraction", 1.0),
    ("train", "tau", 0),
    ("train", "tau_s", 0),
    ("train", "tau_t", -1),
    ("train", "epsilon", -0.5),
    ("train", "delta", 2.0),
    ("train", "beta", 1.5),
    ("train", "momentum", 1.01),
    ("train", "ema_momentum", 2.0),
    ("train", "lr", -1.0),
    ("train", "weight_decay", -0.001),
    ("train", "mu1", -1),
    ("train", "mu2", -0.5),
    ("train", "lr_drop_epochs", [-3]),
    ("trian", None, {"epochs": 1}),
    ("dataset", "noise", float("nan")),
    ("dataset", "noise", float("inf")),
    ("train", "lr", float("inf")),
    ("train", "weight_decay", float("inf")),
    ("train", "mu1", float("inf")),
    ("train", "mu2", float("inf")),
    ("seeds", None, [0, 0]),
]


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "spec.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe" + json.dumps(TINY).encode())
        out = tmp_path / "o"
        rc = cli.main(["train", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_no_config_flag(self):
        assert cli.main(["train", "--out", "/tmp/x"]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["train", "--config", str(p), "--out", "/tmp/x"]) == 2

    def test_unknown_train_key(self, tmp_path):
        spec = {**TINY, "train": {**TINY["train"], "learning_rat": 0.1}}
        rc = cli.main(["train", "--config", write_spec(tmp_path, spec),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_dataset_key(self, tmp_path):
        spec = {**TINY, "dataset": {**TINY["dataset"], "n_clases": 4}}
        rc = cli.main(["train", "--config", write_spec(tmp_path, spec),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_out_dir(self, tmp_path):
        rc = cli.main(["train", "--config", write_spec(tmp_path, TINY)])
        assert rc == 2

    def test_empty_seed_list(self, tmp_path):
        spec = {**TINY, "seeds": []}
        rc = cli.main(["train", "--config", write_spec(tmp_path, spec),
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("section,key,value", INVALID_OPTIONS)
    def test_invalid_option_exits_2_before_writing(self, tmp_path, capsys,
                                                   section, key, value):
        spec = {**TINY, section: value if key is None
                else {**TINY.get(section, {}), key: value}}
        out = tmp_path / "o"
        rc = cli.main(["train", "--config", write_spec(tmp_path, spec),
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        if key in FIXED_HYPERPARAMETERS:
            assert err == f"config error: unknown train option: {key}\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["train", "ablate", "gen-data"])
    def test_odd_n_classes_exits_2_before_writing(self, tmp_path, capsys,
                                                  command):
        spec = {**TINY, "dataset": {**TINY["dataset"], "n_classes": 5}}
        out = tmp_path / "o"
        rc = cli.main([command, "--config", write_spec(tmp_path, spec),
                       "--out", str(out)])
        assert rc == 2
        assert "n_classes must be even" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["train", "ablate", "gen-data"])
    def test_repeated_seed_exits_2_before_writing(self, tmp_path, capsys,
                                                  command):
        # two runs of one seed would share a run directory and count twice
        # in every median
        out = tmp_path / "o"
        rc = cli.main([command, "--config",
                       write_spec(tmp_path, {**TINY, "seeds": [0, 0, 1]}),
                       "--out", str(out)])
        assert rc == 2
        assert "seeds must not repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_single_stride_exits_2(self, tmp_path, capsys):
        spec = {**TINY, "train": {**TINY["train"], "strides": [2]}}
        out = tmp_path / "o"
        rc = cli.main(["train", "--config", write_spec(tmp_path, spec),
                       "--out", str(out)])
        assert rc == 2
        assert "strides needs at least 2 entries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out_flag", [[], ["--out", "o"]],
                             ids=["no-out", "out"])
    @pytest.mark.parametrize("command", ["train", "ablate", "gen-data"])
    def test_non_string_out_dir_exits_2(self, tmp_path, monkeypatch, capsys,
                                        command, out_flag):
        spec_path = write_spec(tmp_path, {**TINY, "out_dir": 5})
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, "--config", spec_path, *out_flag]) == 2
        assert "out_dir must be a string" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    @pytest.mark.parametrize("train_seed", [4, -1])
    def test_train_seed_other_than_first_seed_exits_2(self, tmp_path, capsys,
                                                      train_seed):
        spec = {**TINY, "train": {**TINY["train"], "seed": train_seed}}
        out = tmp_path / "o"
        # the spec's two seeds are compared before --seed replaces them
        rc = cli.main(["train", "--config", write_spec(tmp_path, spec),
                       "--out", str(out), "--seed", str(train_seed)])
        assert rc == 2
        assert (f"train option seed {train_seed} disagrees with the first "
                f"of seeds [0]") in capsys.readouterr().err
        assert not out.exists()
        spec["train"]["seed"] = 0
        assert cli.build_configs(spec)[0].seed == 0

    def test_negative_seed_override_exits_2(self, tmp_path):
        out = tmp_path / "o"
        rc = cli.main(["train", "--config", write_spec(tmp_path, TINY),
                       "--out", str(out), "--seed", "-1"])
        assert rc == 2
        assert not out.exists()


class TestResolution:
    @pytest.mark.parametrize("section,cls", [("train", tr.TrainConfig),
                                             ("dataset", DatasetConfig)])
    def test_ranges_name_fields_and_defaults_pass(self, section, cls):
        # the table is read only for the keys a spec gives, so a misspelt
        # name would silently drop its check
        defaults = cls().__dict__
        for names, test, _ in cli.RANGES[section]:
            for k in names:
                assert k in defaults, k
                v = defaults[k]
                assert all(test(x) for x in
                           (v if isinstance(v, tuple) else [v])), k

    def test_first_seed_trains_and_seeds_the_dataset(self):
        spec = {**TINY_NO_DATASET_SEED, "seeds": [3, 4]}
        cfg, ds_cfg, seeds = cli.build_configs(spec)
        assert (cfg.seed, ds_cfg.seed, seeds) == (3, 3, [3, 4])
        cfg, ds_cfg, seeds = cli.build_configs(spec, seed_override=7)
        assert (cfg.seed, ds_cfg.seed, seeds) == (7, 7, [7])

    def test_dataset_section_seed_wins(self):
        spec = {**TINY, "dataset": {**TINY["dataset"], "seed": 5},
                "seeds": [3]}
        cfg, ds_cfg, _ = cli.build_configs(spec, seed_override=7)
        assert (cfg.seed, ds_cfg.seed) == (7, 5)

    def test_train_seed_is_the_default_seed_list(self):
        spec = {k: v for k, v in TINY.items() if k != "seeds"}
        spec["train"] = {**TINY["train"], "seed": 2}
        cfg, _, seeds = cli.build_configs(spec)
        assert (cfg.seed, seeds) == (2, [2])

    @pytest.mark.parametrize("section,cls", [("train", tr.TrainConfig),
                                             ("dataset", DatasetConfig)])
    def test_nan_fails_every_float_range(self, section, cls):
        defaults = cls().__dict__
        for names, test, _ in cli.RANGES[section]:
            if any(isinstance(defaults[k], float) for k in names):
                assert not test(math.nan), names


class TestScales:
    def test_four_strides_build_three_scales(self):
        # the number of long-term scales follows the strides list
        spec = {**TINY,
                "train": {**TINY["train"], "strides": [2, 4, 8, 12]}}
        cfg, ds_cfg, _ = cli.build_configs(spec)
        assert cfg.n_scales == 3
        assert "n_scales" not in cfg.to_dict()
        state = tr.TrainerState(cfg, SynthDataset(ds_cfg))
        heads = sorted(k for k in state.student.params if k.startswith("temp"))
        assert heads == ["temp1.W", "temp1.b", "temp2.W", "temp2.b",
                         "temp3.W", "temp3.b"]
        assert len(state.mtl_centers) == 3
        ds = state.ds
        tr.train_step(state, ds.labeled[:1], ds.unlabeled[:2], 0,
                      np.random.default_rng(0))
        # every scale's head is trained, the last one too
        assert np.any(state.student.params["temp3.W"].grad != 0)


class TestTrain:
    def test_train_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", write_spec(tmp_path, TINY),
                       "--out", str(out)])
        assert rc == 0
        for name in ("metrics.csv", "epochs.csv", "final_eval.json",
                     "resolved_config.json", "manifest.json"):
            assert (out / name).exists()
        summary = json.loads(capsys.readouterr().out)
        assert 0.0 <= summary["top1"] <= 1.0

    def test_train_byte_identical_reruns(self, tmp_path):
        spec_path = write_spec(tmp_path, TINY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", spec_path, "--out", str(out1)]) == 0
        assert cli.main(["train", "--config", spec_path, "--out", str(out2)]) == 0
        for name in ("metrics.csv", "epochs.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    # the huge learning rate overflows on purpose
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_exits_1_and_saves_no_checkpoint(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(tr, "LR", 1e6)
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", write_spec(tmp_path, TINY),
                       "--out", str(out)])
        assert rc == 1
        assert "non-finite total loss" in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()
        assert not (out / "final_eval.json").exists()

    def test_seed_override_changes_metrics(self, tmp_path):
        spec_path = write_spec(tmp_path, TINY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", spec_path, "--out", str(out1)])
        cli.main(["train", "--config", spec_path, "--out", str(out2),
                  "--seed", "7"])
        assert (out1 / "metrics.csv").read_bytes() != \
            (out2 / "metrics.csv").read_bytes()


class TestGenData:
    def test_writes_manifest_and_difficulty(self, tmp_path):
        out = tmp_path / "data"
        rc = cli.main(["gen-data", "--config", write_spec(tmp_path, TINY),
                       "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["videos"]) == 4 * 4
        report = json.loads((out / "difficulty.json").read_text())
        assert "spatial_pair_linear_accuracy" in report

    def test_deterministic_manifest(self, tmp_path):
        spec_path = write_spec(tmp_path, TINY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["gen-data", "--config", spec_path, "--out", str(out1)])
        cli.main(["gen-data", "--config", spec_path, "--out", str(out2)])
        assert (out1 / "manifest.json").read_bytes() == \
            (out2 / "manifest.json").read_bytes()

    def test_manifest_uses_the_dataset_section_seed(self, tmp_path):
        spec = {**TINY, "dataset": {**TINY["dataset"], "seed": 5},
                "seeds": [0]}
        out = tmp_path / "data"
        assert cli.main(["gen-data", "--config", write_spec(tmp_path, spec),
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 5


class TestAblate:
    def test_tiny_grid_counts_and_summary(self, tmp_path):
        out = tmp_path / "grid"
        spec = {**TINY, "seeds": [0, 1]}
        rc = cli.main(["ablate", "--config", write_spec(tmp_path, spec),
                       "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert {r["config"] for r in summary["configs"]} == \
            {"baseline", "acl_only", "mtl_only", "both"}
        for row in summary["configs"]:
            assert len(row["top1_by_seed"]) == 2
        for name in ("baseline", "acl_only", "mtl_only", "both"):
            for seed in (0, 1):
                assert (out / name / f"seed_{seed}" / "final_eval.json").exists()
        assert (out / "summary.csv").exists()
        assert set(summary["ordering"]) == {"both_ge_singles",
                                            "singles_ge_baseline",
                                            "both_minus_baseline"}

    def test_cell_trains_on_the_data_train_uses(self, tmp_path):
        spec_path = write_spec(tmp_path, {**TINY_NO_DATASET_SEED,
                                          "seeds": [3]})
        grid, run = tmp_path / "grid", tmp_path / "run"
        assert cli.main(["ablate", "--config", spec_path,
                         "--out", str(grid)]) == 0
        assert cli.main(["train", "--config", spec_path,
                         "--out", str(run)]) == 0
        for name in ("metrics.csv", "manifest.json"):
            assert (grid / "both" / "seed_3" / name).read_bytes() == \
                (run / name).read_bytes()


class TestVerify:
    def test_verify_passes(self, capsys):
        rc = cli.main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 3

    @pytest.mark.parametrize("option", [["--seed", "1"], ["--config", "x"],
                                        ["--out", "o"]],
                             ids=["seed", "config", "out"])
    def test_verify_takes_no_options(self, option):
        # verify reads no spec, seed or output directory
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *option])
        assert exc.value.code == 2
