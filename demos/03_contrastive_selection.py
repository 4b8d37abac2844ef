"""Adaptive contrastive selection end to end: a memory bank of pseudo-labeled
embeddings, prototype-cosine scoring, mixture-based reliability, threshold
selection (with its fallback branch), and the contrastive loss value.
"""

import numpy as np

from seqssl import acl
from seqssl.protobank import MemoryBank, PrototypeTable

rng = np.random.default_rng(3)
d = 16


def unit(v):
    return v / np.linalg.norm(v)

# A prototype per class, from "labeled" embeddings.
table = PrototypeTable(n_classes=2, dim=d)
center0, center1 = unit(rng.normal(size=d)), unit(rng.normal(size=d))
for _ in range(5):
    table.update(0, unit(center0 + 0.1 * rng.normal(size=d)), beta=0.9)
    table.update(1, unit(center1 + 0.1 * rng.normal(size=d)), beta=0.9)

# A bank mixing genuine class-0 neighbours with impostors that carry the
# same pseudo-label but sit far from the prototype. Here one vector serves as
# both the loss-side embedding and the scoring vector of each record.
bank = MemoryBank(capacity=64, d_e=d, d_h=d)
for _ in range(6):
    v = unit(center0 + 0.15 * rng.normal(size=d))             # genuine
    bank.push(v, v, 0)
for _ in range(4):
    v = unit(rng.normal(size=d))                              # impostors
    bank.push(v, v, 0)
for _ in range(8):
    v = unit(center1 + 0.15 * rng.normal(size=d))             # other class
    bank.push(v, v, 1)

# Anchor: the weak-augmented embedding of the sample being learned.
f_p = unit(center0 + 0.1 * rng.normal(size=d))

candidates = acl.build_candidates(bank, pseudo_label=0, f_score=f_p)
scores = acl.score_candidates([(candidates, table.get(0))])[0]
print(f"candidate reliabilities: {scores.round(3)}")

sel = acl.select(bank, 0, f_p, scores, epsilon=0.7)
print(f"fallback used          : {sel.used_fallback}")
print(f"positives / negatives  : {len(sel.positives)} / {len(sel.negatives)}")

loss = acl.acl_loss(f_p, sel, tau=0.07)
print(f"contrastive loss       : {loss.item():.4f}")

# An unreliable anchor (random direction) trips the fallback: the only
# positive is the anchor's own weak view and the whole bank pushes away.
f_bad = unit(rng.normal(size=d))
cands = acl.build_candidates(bank, 0, f_bad)
sel_bad = acl.select(bank, 0, f_bad,
                     acl.score_candidates([(cands, table.get(0))])[0],
                     epsilon=0.7)
print(f"unreliable anchor      : fallback={sel_bad.used_fallback}, "
      f"positives={len(sel_bad.positives)}, negatives={len(sel_bad.negatives)}")
