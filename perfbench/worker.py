"""One piece of benchmark work in a fresh interpreter, so that import time,
CPU time and peak memory belong to that piece alone.

  python3 perfbench/worker.py setup SPEC WORKLOAD
      Time the import of ``seqssl.cli`` and, for a training workload, the
      construction of its dataset and trainer state. Prints a JSON object
      with the seconds scaled to the reference speed (``speed.py``), the
      raw seconds and the measured speed.
  python3 perfbench/worker.py round SPEC WORKLOAD OUT_DIR [SPANS]
      Run the workload once through ``seqssl``'s command-line entry point and
      write wall time, CPU time, peak RSS and exit code to OUT_DIR/round.json.
      The times are scaled to the reference speed; the raw times and the
      measured speed are written beside them. Given SPANS, the layers are
      wrapped in span timers instead, the times are left raw, the spans are
      written to SPANS and the per-layer figures into round.json.

``seqssl`` is imported from the ``src`` directory next to this one, never
from an installed copy.
"""

import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import speed  # noqa: E402


def import_cli():
    sys.path.insert(0, SRC)
    cli = importlib.import_module("seqssl.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"seqssl was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(spec_path, workload):
    with open(spec_path) as f:
        spec = json.load(f)
    with speed.Sampler(with_tape=False,
                       period_s=speed.SETUP_PERIOD_S) as s:
        cli = import_cli()
        if workload != "verify":
            from seqssl.synthgen import SynthDataset
            from seqssl.trainer import TrainerState

            cfg, ds_cfg, _ = cli.build_configs(spec)
            TrainerState(cfg, SynthDataset(ds_cfg))
    print(json.dumps({"setup_s": s.wall_s, "raw_s": s.raw_wall_s,
                      "speed": s.speed}))


def round_(spec_path, workload, out_dir, spans_path=None):
    cli = import_cli()
    argv = (["verify"] if workload == "verify"
            else ["train", "--config", spec_path, "--out", out_dir])
    if spans_path:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - w0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result = {"returncode": rc, "wall_s": wall,
                  "cpu_s": (ru1.ru_utime + ru1.ru_stime)
                  - (ru0.ru_utime + ru0.ru_stime),
                  "layers": spans.layer_metrics(tracer.spans)}
        tracer.dump(spans_path)
    else:
        with speed.Sampler() as s:
            rc = cli.main(argv)
        result = {"returncode": rc, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
                  "raw_wall_s": s.raw_wall_s, "raw_cpu_s": s.raw_cpu_s,
                  "speed": s.speed}
    # Linux reports ru_maxrss in KiB
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(os.path.join(out_dir, "round.json"), "w") as f:
        json.dump(result, f)


def main(argv):
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        setup(*args)
    elif mode == "round":
        round_(*args)
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
