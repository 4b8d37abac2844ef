"""Batch command-line front end.

Subcommands:
  train     run one training job from a config file
  ablate    run the 4-way component ablation (baseline/+ACL/+MTL/+both)
  verify    run the built-in numerical self-checks
  gen-data  materialize a dataset manifest and its difficulty report

Exit codes: 0 success, 1 runtime/verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
from dataclasses import replace

from .backbone import write_atomic
from .synthgen import (DatasetConfig, SynthDataset, clip_span,
                       difficulty_check, labeled_per_class)
from .trainer import TrainConfig, run_training
from .verify import run_verification


class ConfigError(Exception):
    """A spec or command line that cannot run; main exits 2 on it."""


ABLATION_CONFIGS = (
    ("baseline", False, False),
    ("acl_only", True, False),
    ("mtl_only", False, True),
    ("both", True, True),
)


def load_spec(path: str) -> dict:
    if path is None:
        raise ConfigError("--config is required")
    try:
        with open(path) as f:
            spec = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as e:
        raise ConfigError(f"config file is unreadable: {e}")
    except ValueError as e:  # bad JSON, or bytes that are not UTF-8
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(spec, dict):
        raise ConfigError("config root must be a JSON object")
    return spec


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_options(section: str, values: dict, defaults) -> None:
    """Each key must name an option, and each value must have the type of
    that option's default: ints for int options (not bools), ints or floats
    for float options, bools for bool options and lists of ints for tuple
    options. Then the value must pass the option's RANGES entries."""
    for k, v in values.items():
        if k not in defaults.__dict__:
            raise ConfigError(f"unknown {section} option: {k}")
        want = type(defaults.__dict__[k])
        if want is tuple:
            ok = isinstance(v, list) and all(_is_int(x) for x in v)
        elif want is float:
            ok = _is_int(v) or isinstance(v, float)
        elif want is int:
            ok = _is_int(v)
        else:
            ok = isinstance(v, want)
        if not ok:
            expected = "list of ints" if want is tuple else want.__name__
            raise ConfigError(f"{section} option {k}: expected {expected}, "
                              f"got {v!r}")
        for names, test, wording in RANGES[section]:
            # written as "not test" so that a NaN fails too
            if k in names and not all(test(x) for x in
                                      (v if isinstance(v, list) else [v])):
                raise ConfigError(f"{section} option {k} must be {wording}, "
                                  f"got {v}")


# the keys a spec may hold at its top level
SPEC_KEYS = ("train", "dataset", "seeds", "out_dir")

# per section, the options with a range: (names, test, wording of the range);
# every entry of a list option must pass the test, and a NaN fails every test
RANGES = {
    "train": (
        (("epochs", "b_l", "b_u", "clip_len", "bank_capacity", "d_h", "d_e",
          "d_k", "strides"), lambda v: v >= 1, "at least 1"),
        (("delta",), lambda v: 0 <= v <= 1, "in [0, 1]"),
        (("mu1", "mu2"), lambda v: 0 <= v < math.inf, "finite and at least 0"),
    ),
    "dataset": (
        (("n_classes",), lambda v: v >= 2, "at least 2"),
        (("n_classes",), lambda v: v % 2 == 0, "even (classes are paired)"),
        (("per_class", "d_in"), lambda v: v >= 1, "at least 1"),
        (("labeled_fraction",), lambda v: 0 < v <= 1, "in (0, 1]"),
        (("seed",), lambda v: v >= 0, "at least 0"),
        (("noise",), lambda v: 0 <= v < math.inf, "finite and at least 0"),
    ),
}


def _section(spec: dict, name: str) -> dict:
    section = spec.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    return section


def build_configs(spec: dict):
    """The (TrainConfig, DatasetConfig, seeds) of a spec, checked and ready to
    run. The first seed trains; it seeds the dataset too, unless the dataset
    section sets its own seed. A train seed must equal the first seed."""
    for k in spec:
        if k not in SPEC_KEYS:
            raise ConfigError(f"unknown top-level key: {k}")
    train_kw = dict(_section(spec, "train"))
    dataset_kw = _section(spec, "dataset")
    _check_options("train", train_kw, TrainConfig())
    _check_options("dataset", dataset_kw, DatasetConfig())
    seeds = spec.get("seeds", [train_kw.get("seed", TrainConfig.seed)])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"seeds must be a non-empty list, got {seeds!r}")
    for s in seeds:
        if not _is_int(s) or s < 0:
            raise ConfigError(f"seeds: expected non-negative ints, got {s!r}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds must not repeat, got {seeds}")
    if train_kw.get("seed", seeds[0]) != seeds[0]:
        raise ConfigError(f"train option seed {train_kw['seed']} disagrees "
                          f"with the first of seeds {seeds}")
    if "strides" in train_kw:
        train_kw["strides"] = tuple(train_kw["strides"])
    cfg = TrainConfig(**{**train_kw, "seed": seeds[0]})
    ds_cfg = DatasetConfig(**{"seed": seeds[0], **dataset_kw})
    # a short-term plus at least one longer long-term stride, a video long
    # enough for the longest-stride clip, and unlabeled videos in every class
    if len(cfg.strides) < 2:
        raise ConfigError(f"train option strides needs at least 2 entries, "
                          f"got {list(cfg.strides)}")
    if any(a >= b for a, b in zip(cfg.strides, cfg.strides[1:])):
        raise ConfigError(f"train option strides must increase strictly, "
                          f"got {list(cfg.strides)}")
    need = clip_span(cfg.clip_len, max(cfg.strides))
    if ds_cfg.video_len < need:
        raise ConfigError(f"dataset option video_len must be at least {need} "
                          f"for clip_len {cfg.clip_len} at stride "
                          f"{max(cfg.strides)}, got {ds_cfg.video_len}")
    if labeled_per_class(ds_cfg) >= ds_cfg.per_class:
        raise ConfigError(f"labeled_fraction {ds_cfg.labeled_fraction} of "
                          f"per_class {ds_cfg.per_class} leaves no unlabeled "
                          f"video")
    return cfg, ds_cfg, seeds


def _out_dir(args, spec: dict) -> str:
    """The output directory: --out, else the spec's out_dir, which must be a
    string wherever it is given."""
    spec_out = spec.get("out_dir")
    if spec_out is not None and not isinstance(spec_out, str):
        raise ConfigError(f"out_dir must be a string, got {spec_out!r}")
    out = args.out or spec_out
    if not out:
        raise ConfigError("no output directory (set out_dir or pass --out)")
    return out


def cmd_train(args) -> int:
    spec = load_spec(args.config)
    cfg, ds_cfg, _ = build_configs(spec)
    summary = run_training(cfg, ds_cfg, _out_dir(args, spec))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_ablate(args) -> int:
    spec = load_spec(args.config)
    cfg, ds_cfg, seeds = build_configs(spec)
    out = _out_dir(args, spec)
    os.makedirs(out, exist_ok=True)

    names, run_cfgs, run_outs = [], [], []
    for name, use_acl, use_mtl in ABLATION_CONFIGS:
        for seed in seeds:
            names.append(name)
            run_cfgs.append(replace(cfg, use_acl=use_acl, use_mtl=use_mtl,
                                    seed=seed))
            run_outs.append(os.path.join(out, name, f"seed_{seed}"))

    # imported here, so that the other commands do not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # the CPUs this process may run on, not all the machine's
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(len(names), cpus)
    # one shared dataset across the grid: the ablation compares training
    # components, so only the training seed varies
    with ProcessPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(run_training, run_cfgs,
                                 [ds_cfg] * len(names), run_outs))

    by_config = {name: [] for name, _, _ in ABLATION_CONFIGS}
    for name, summary in zip(names, outcomes):
        by_config[name].append(summary)

    rows = []
    medians = {}
    for name, _, _ in ABLATION_CONFIGS:
        top1s = [s["top1"] for s in by_config[name]]
        medians[name] = statistics.median(top1s)
        rows.append({"config": name, "median_top1": medians[name],
                     "top1_by_seed": top1s})
    single_hi = max(medians["acl_only"], medians["mtl_only"])
    single_lo = min(medians["acl_only"], medians["mtl_only"])
    ordering = {
        "both_ge_singles": medians["both"] >= single_hi,
        "singles_ge_baseline": single_lo >= medians["baseline"],
        "both_minus_baseline": medians["both"] - medians["baseline"],
    }
    summary = {"configs": rows, "ordering": ordering, "seeds": seeds}
    write_atomic(os.path.join(out, "summary.json"),
                 lambda f: json.dump(summary, f, indent=2, sort_keys=True))

    def write_csv(f):
        w = csv.writer(f)
        w.writerow(["config", "median_top1"])
        for row in rows:
            w.writerow([row["config"], repr(row["median_top1"])])
    write_atomic(os.path.join(out, "summary.csv"), write_csv)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    ok, results = run_verification()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max error {r.max_error:.3e} "
              f"(tolerance {r.tolerance:.0e})")
    return 0 if ok else 1


def cmd_gen_data(args) -> int:
    spec = load_spec(args.config)
    _, ds_cfg, _ = build_configs(spec)
    out = _out_dir(args, spec)
    os.makedirs(out, exist_ok=True)
    ds = SynthDataset(ds_cfg)
    write_atomic(os.path.join(out, "manifest.json"),
                 lambda f: json.dump(ds.manifest(), f, indent=2))
    worst = difficulty_check(ds)
    report = {"spatial_pair_linear_accuracy": worst,
              "hard_enough": worst <= 0.60}
    write_atomic(os.path.join(out, "difficulty.json"),
                 lambda f: json.dump(report, f, indent=2))
    print(json.dumps(report, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="seqssl")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("train", cmd_train), ("ablate", cmd_ablate),
                     ("gen-data", cmd_gen_data)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
    sub.add_parser("verify").set_defaults(fn=cmd_verify)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
