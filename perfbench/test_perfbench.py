"""Tests of the benchmark's own parts: the output checks must pass genuine
runs and reject each kind of broken output, and self time must be right on
hand-built span trees.

  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import csv
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from seqssl import cli  # noqa: E402

# a desk-size training run: 2 epochs of 8 steps, 1 labeled + 3 unlabeled
# videos per step
TINY = {
    "train": {"epochs": 2, "b_l": 1, "b_u": 3, "mu1": 1.0, "mu2": 1.0,
              "clip_len": 4, "strides": [2, 4, 8], "d_h": 8, "d_e": 4,
              "d_k": 6, "bank_capacity": 32, "seed": 0},
    "dataset": {"n_classes": 4, "per_class": 8, "labeled_fraction": 0.25,
                "d_in": 8, "video_len": 60, "noise": 0.05, "seed": 0},
    "seeds": [0],
}


def tiny_spec(use_acl):
    spec = json.loads(json.dumps(TINY))
    spec["train"].update(use_acl=use_acl, use_mtl=use_acl)
    return spec


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Genuine run directories of the tiny spec, with and without ACL/MTL."""
    out = {}
    for name, use_acl in (("both", True), ("baseline", False)):
        d = tmp_path_factory.mktemp(name)
        spec_path = d / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(use_acl)))
        assert cli.main(["train", "--config", str(spec_path),
                         "--out", str(d / "run")]) == 0
        out[name] = d / "run"
    return out


def problems_of(run_dir, use_acl):
    spec = tiny_spec(use_acl)
    return checks.check_train_run(str(run_dir), spec,
                                  checks.steps_per_epoch(spec), 0.0)


def edited_copy(run_dir, tmp_path, edit_row, step=3, name="metrics.csv"):
    """A copy of run_dir whose CSV ``name`` has row ``step`` rewritten."""
    dst = tmp_path / "edited"
    shutil.copytree(run_dir, dst)
    path = dst / name
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    row = dict(zip(rows[0], rows[1 + step]))
    edit_row(row)
    rows[1 + step] = [row[k] for k in rows[0]]
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    return dst


def test_genuine_runs_pass(runs):
    assert problems_of(runs["both"], True) == []
    assert problems_of(runs["baseline"], False) == []


def test_rejects_nan(runs, tmp_path):
    run = edited_copy(runs["both"], tmp_path,
                      lambda r: r.update(L_u="nan", total="nan"))
    assert problems_of(run, True) == [(3, "metrics.csv step 3: "
                                          "non-finite value")]


def test_rejects_total_that_is_not_the_sum(runs, tmp_path):
    run = edited_copy(runs["both"], tmp_path,
                      lambda r: r.update(total=repr(float(r["total"]) + 1e-6)))
    problems = problems_of(run, True)
    assert [step for step, _ in problems] == [3]
    assert "sum of parts" in problems[0][1]


def test_rejects_baseline_acl_term(runs, tmp_path):
    def add_acl(r):
        # the total still adds up, so only the switched-off rule can fire
        r.update(L_ACL="0.25", total=repr(float(r["total"]) + 0.25))
    problems = problems_of(edited_copy(runs["baseline"], tmp_path, add_acl),
                           False)
    assert [step for step, _ in problems] == [3]
    assert "ACL is off" in problems[0][1]


def test_rejects_pseudo_acc_on_an_empty_gate(runs, tmp_path):
    run = edited_copy(runs["both"], tmp_path, lambda r: r.update(
        n_accepted="0", acceptance_rate="0.0", pseudo_acc="0.5"),
        step=0, name="epochs.csv")
    problems = problems_of(run, True)
    assert len(problems) == 1 and "pseudo_acc 0.5" in problems[0][1]


def test_rejects_top1_disagreeing_with_the_forward_pass(runs, tmp_path):
    dst = tmp_path / "edited"
    shutil.copytree(runs["both"], dst)
    path = dst / "final_eval.json"
    summary = json.loads(path.read_text())
    n_eval = TINY["dataset"]["n_classes"] * checks.EVAL_PER_CLASS
    summary["top1"] = (round(summary["top1"] * n_eval) + 1) % n_eval / n_eval
    path.write_text(json.dumps(summary))
    problems = problems_of(dst, True)
    assert len(problems) == 1 and "checkpoint's teacher" in problems[0][1]
    assert checks.failed_ops(problems, 16) == 16


def test_verify_output_check():
    lines = "".join(f"PASS {name}: max error 1.0e-11 (tolerance 1e-04)\n"
                    for name in checks.VERIFY_CHECKS)
    assert checks.check_verify(0, lines) == (0, [])
    failed, _ = checks.check_verify(0, lines.replace("PASS gmm", "FAIL gmm"))
    assert failed == 1
    assert checks.check_verify(1, lines)[0] == len(checks.VERIFY_CHECKS)


def test_self_time_on_a_hand_built_tree():
    tree = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.leaf", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, None],
        # two children of "c" that overlap on [7.5, 8]: covered once
        ["c", 7.0, 9.5, 0, None],
        ["c.x", 7.0, 8.0, 4, None],
        ["c.y", 7.5, 9.0, 4, None],
    ]
    assert spans.self_times(tree) == pytest.approx(
        [10 - 3 - 1 - 2.5, 3 - 1, 1, 1, 2.5 - 2, 1, 1.5])


def test_per_step_counts_on_a_hand_built_trace():
    enc = "backbone.encode"
    tree = [
        [spans.STEP, 0.0, 1.0, -1, None],
        [enc, 0.1, 0.2, 0, "p1"], [enc, 0.3, 0.4, 0, "p1"],
        [enc, 0.5, 0.6, 0, "p2"],
        [spans.STEP, 1.0, 3.0, -1, None],
        ["trainer.prepare_step_plan", 1.0, 2.0, 4, None],
        [enc, 1.1, 1.2, 5, "p1"],
        ["trainer.evaluate", 3.0, 4.0, -1, None],
        [enc, 3.1, 3.2, 7, "p9"],
    ]
    m = spans.layer_metrics(tree)
    assert m["backbone.encode.calls_per_step"] == 2.0          # 4 / 2 steps
    assert m["backbone.encode.distinct_per_step"] == 1.5       # (2 + 1) / 2
    assert m["backbone.encode.s"] == pytest.approx(0.5)        # eval counts
    assert m["trainer.prepare_step_plan.self_s"] == pytest.approx(0.9)
    assert m["trainer.train_step.ms_p50"] == pytest.approx(1500.0)
    assert m["gmm.fit_gmm.calls_per_step"] == 0.0


def test_traced_worker_counts_encodes(tmp_path):
    """Tracing runs through the real layers: a tiny step encodes 3 labeled
    clips twice and, per unlabeled video, its teacher weak short and long
    clips and the student strong clip (4 distinct pairs, 12 calls)."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(tiny_spec(True)))
    out = tmp_path / "run"
    out.mkdir()
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "round",
                    str(spec_path), "train-both", str(out),
                    str(tmp_path / "spans.json")],
                   check=True, capture_output=True, timeout=120)
    layers = json.loads((out / "round.json").read_text())["layers"]
    b_u = TINY["train"]["b_u"]
    assert layers["backbone.encode.calls_per_step"] == 6 + 12 * b_u
    assert layers["backbone.encode.distinct_per_step"] == 3 + 4 * b_u
    assert layers["trainer.compute_losses.calls"] == (
        TINY["train"]["epochs"] * checks.steps_per_epoch(TINY))
    assert (tmp_path / "spans.json").stat().st_size > 0


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_scales_work_by_the_slice_after_it():
    """With no timer tick inside the work, the one slice run at the end sets
    the scale of all of it."""
    with speed.Sampler(period_s=60.0) as s:
        busy(0.05)
    assert s.slices == 1
    assert s.wall_s == pytest.approx(s.raw_wall_s * s.speed, rel=1e-3)


def test_sampler_interrupts_the_work():
    with speed.Sampler() as s:
        busy(0.2)
    assert s.slices >= 5
    assert s.raw_wall_s >= 0.2 > s.slice_wall > 0
    assert s.wall_s > 0 and s.cpu_s > 0


def test_setup_worker_reports_scaled_seconds(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(tiny_spec(True)))
    out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                          "setup", str(spec_path), "train-both"],
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    sample = json.loads(out)
    assert sample["setup_s"] > 0 and sample["raw_s"] > 0
    assert sample["speed"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        spans.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
