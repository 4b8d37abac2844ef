"""A miniature end-to-end training run: EMA teacher pseudo-labeling with the
confidence gate, reliability-weighted unsupervised loss, contrastive and
multi-scale alignment terms, and the per-epoch metrics the full runs log.

Uses a reduced configuration so it finishes in a few seconds; the full
default configuration is what `seqssl train` and the acceptance ablation run.
"""

import csv
import json
import tempfile
from pathlib import Path

from seqssl.synthgen import DatasetConfig
from seqssl.trainer import TrainConfig, run_training

ds_cfg = DatasetConfig(n_classes=4, per_class=12, labeled_fraction=0.25,
                       d_in=8, video_len=120, noise=0.05, seed=0)
cfg = TrainConfig(seed=0, epochs=8, clip_len=4, strides=(4, 8, 16),
                  d_h=16, d_e=8, d_k=12, bank_capacity=64, b_l=1, b_u=3)

with tempfile.TemporaryDirectory(prefix="seqssl_demo_") as out:
    summary = run_training(cfg, ds_cfg, out, eval_per_class=4)
    print(json.dumps(summary, indent=2, sort_keys=True))

    print("\nper-epoch trajectory (teacher top-1 / pseudo-label accuracy over"
          " accepted and over all unlabeled samples / acceptance rate):")
    with open(Path(out) / "epochs.csv", newline="") as f:
        for row in csv.DictReader(f):
            print(f"  epoch {int(row['epoch']):2d}: "
                  f"top1={float(row['teacher_top1']):.3f} "
                  f"pseudo_acc={float(row['pseudo_acc']):.3f} "
                  f"(n={row['n_accepted']}) "
                  f"pseudo_acc_all={float(row['pseudo_acc_all']):.3f} "
                  f"accepted={float(row['acceptance_rate']):.3f}")
