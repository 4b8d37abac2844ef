import json

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqssl import acl
from seqssl import autodiff as ad
from seqssl import backbone as bb
from seqssl import mtl
from seqssl import trainer as tr
from seqssl.synthgen import DatasetConfig, SynthDataset

DIMS = bb.ModelDims(d_in=4, d_h=6, d_e=4, d_k=5, n_classes=3, clip_len=4,
                    n_scales=2)
# a clip length that is not a power of two, so that where a division by it
# sits shows in the rounding, and three temporal heads on one token tensor
ODD_DIMS = bb.ModelDims(d_in=3, d_h=7, d_e=5, d_k=6, n_classes=3, clip_len=5,
                        n_scales=3)


def make_params(seed=0, trainable=True):
    return bb.ParamSet.init(DIMS, np.random.default_rng(seed), trainable)


def make_clip(frames):
    return bb.Clip(frames=np.asarray(frames, dtype=np.float64), stride=1)


class TestEncode:
    def test_zero_clip_zero_tokens(self):
        # the post-mixing nonlinearity is zero at zero, so zero frames
        # through zero weights give exactly zero tokens
        params = make_params()
        enc = bb.encode(params, make_clip(np.zeros((4, 4))))
        assert np.array_equal(enc.tokens.data, np.zeros((4, 6)))

    def test_identical_frames_identical_rows(self):
        params = make_params(1)
        frame = np.array([0.3, -0.2, 0.5, 0.1])
        enc = bb.encode(params, make_clip(np.tile(frame, (4, 1))))
        for t in range(1, 4):
            np.testing.assert_allclose(enc.tokens.data[t], enc.tokens.data[0],
                                       atol=1e-15)

    def test_pooled_is_column_mean(self):
        params = make_params(2)
        enc = bb.encode(params, make_clip(np.random.default_rng(5).normal(size=(4, 4))))
        np.testing.assert_allclose(enc.pooled.data, enc.tokens.data.mean(axis=0),
                                   atol=1e-12)

    def test_time_reversal_changes_tokens(self):
        params = make_params(3)
        frames = np.random.default_rng(6).normal(size=(4, 4))
        fwd = bb.encode(params, make_clip(frames))
        rev = bb.encode(params, make_clip(frames[::-1]))
        assert not np.allclose(fwd.tokens.data, rev.tokens.data)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError,
                           match=r"clip frames \(3, 4\), expected"):
            bb.encode(make_params(), make_clip(np.zeros((3, 4))))

    def test_deterministic(self):
        params = make_params(4)
        frames = np.random.default_rng(7).normal(size=(4, 4))
        e1 = bb.encode(params, make_clip(frames))
        e2 = bb.encode(params, make_clip(frames))
        assert np.array_equal(e1.tokens.data, e2.tokens.data)


def reference_encode(params, frames):
    """encode's arithmetic in plain numpy, operation for operation."""
    p = {k: v.data for k, v in params.params.items()}
    t = params.dims.clip_len
    h = np.tanh(frames @ p["enc.W1"] + p["enc.b1"])
    unif = np.full((t, t), 1.0 / t)
    mix = (p["enc.M"] - p["enc.M"] @ unif) + unif
    pre = mix @ h
    tokens = np.logaddexp(0.0, pre) - np.full(pre.shape, np.log(2.0))
    return tokens, tokens.mean(axis=0)


def tanh(a):
    """Elementwise tanh as one op of the tape."""
    a = ad.as_tensor(a)
    y = np.tanh(a.data)

    def bwd(g):
        a._accum(g * (1.0 - y * y))

    return ad._node(y, (a,), bwd)


def softplus(a):
    """Elementwise log(1 + exp(x)) as one op of the tape, computed stably for
    large |x|."""
    a = ad.as_tensor(a)
    y = np.logaddexp(0.0, a.data)

    def bwd(g):
        a._accum(g * (1.0 / (1.0 + np.exp(-a.data))))

    return ad._node(y, (a,), bwd)


def sub(a, b):
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub: {a.shape} vs {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(-g)

    return ad._node(a.data - b.data, (a, b), bwd)


def dot(a, b):
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ValueError(f"dot: {a.shape} vs {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a._accum(g * b.data)
        if b.requires_grad:
            b._accum(g * a.data)

    return ad._node(np.dot(a.data, b.data), (a, b), bwd)


def tsum(a):
    a = ad.as_tensor(a)

    def bwd(g):
        a._accum(np.full_like(a.data, float(g)))

    return ad._node(a.data.sum(), (a,), bwd)


def l2_normalize(v):
    """Normalize a vector to unit length; full Jacobian (I - uu^T)/||v||."""
    v = ad.as_tensor(v)
    if v.data.ndim != 1:
        raise ValueError(f"l2_normalize expects 1-D, got {v.shape}")
    u, n = ad._unit(v.data)

    def bwd(g):
        v._accum((g - u * np.dot(u, g)) / n)

    return ad._node(u, (v,), bwd)


def matmul(a, b):
    """2-D @ 2-D or 2-D @ 1-D product."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != 2 or len(sb) not in (1, 2):
        raise ValueError(f"matmul: ndim {len(sa)} @ {len(sb)}")
    if sa[1] != sb[0]:
        raise ValueError(f"matmul: inner dims {sa} @ {sb}")

    if len(sb) == 2:
        def bwd(g):
            if a.requires_grad:
                a._accum(g @ b.data.T)
            if b.requires_grad:
                b._accum(a.data.T @ g)
    else:
        def bwd(g):
            if a.requires_grad:
                a._accum(np.outer(g, b.data))
            if b.requires_grad:
                b._accum(a.data.T @ g)

    return ad._node(a.data @ b.data, (a, b), bwd)


def exp(a):
    a = ad.as_tensor(a)
    y = np.exp(a.data)

    def bwd(g):
        a._accum(g * y)

    return ad._node(y, (a,), bwd)


def log(a):
    a = ad.as_tensor(a)

    def bwd(g):
        a._accum(g / a.data)

    return ad._node(np.log(a.data), (a,), bwd)


def softmax_temp(logits, tau):
    """Temperature softmax over a 1-D tensor; subtract-max stabilized."""
    logits = ad.as_tensor(logits)
    y = ad._softmax(logits.data, tau)

    def bwd(g):
        logits._accum(y * (g - np.dot(g, y)) / tau)

    return ad._node(y, (logits,), bwd)


# the ops above as entries of tests/test_autodiff.py's list of every op
_VEC = np.random.default_rng(0).uniform(0.5, 1.5, size=3)
_VEC2 = np.random.default_rng(2).uniform(0.5, 1.5, size=3)
_MAT = np.random.default_rng(1).uniform(0.5, 1.5, size=(4, 3))
_MAT32 = np.random.default_rng(1).uniform(0.5, 1.5, size=(3, 2))
REFERENCE_OPS = [("tanh", tanh, (_VEC,)), ("softplus", softplus, (_VEC,)),
                 ("sub", sub, (_VEC, _VEC2)), ("dot", dot, (_VEC, _VEC2)),
                 ("tsum", tsum, (_VEC,)),
                 ("l2_normalize", l2_normalize, (_VEC,)),
                 ("matmul-2d", matmul, (_MAT, _MAT32)),
                 ("matmul-1d", matmul, (_MAT, _VEC)),
                 ("exp", exp, (_VEC,)), ("log", log, (_VEC,)),
                 ("softmax_temp", lambda a: softmax_temp(a, 0.5), (_VEC,))]


class TestReferenceOps:
    def test_softplus_values_and_gradient(self):
        x = ad.Tensor([-50.0, -1.0, 0.0, 1.0, 50.0], requires_grad=True)
        y = softplus(x)
        np.testing.assert_allclose(y.data, np.logaddexp(0.0, x.data),
                                   atol=1e-15)
        assert y.data[0] > 0.0  # stable, no underflow to exactly 0 needed
        assert y.data[2] == pytest.approx(np.log(2.0))
        err = ad.gradcheck(lambda w: tsum(softplus(w)),
                           ad.Tensor([0.3, -0.7, 1.2]))
        assert err < 1e-8

    @settings(max_examples=200, deadline=None)
    @given(x=hnp.arrays(np.float64,
                        st.tuples(st.integers(1, 12), st.integers(1, 70)),
                        elements=st.floats(-500.0, 500.0)))
    def test_softplus_gradient_is_the_sigmoid(self, x):
        g = np.cos(x)   # any upstream gradient
        p = ad.parameter(x)
        softplus(p)._backward_fn(g)
        assert np.array_equal(p.grad, g * (1 / (1 + np.exp(-x))))


def reference_tape_encode(params, frames):
    """encode as the op-by-op tape built it before the encoder became one
    node: ten nodes per clip."""
    p = params.params
    h = tanh(ad.add(matmul(ad.Tensor(frames), p["enc.W1"]), p["enc.b1"]))
    m = p["enc.M"]
    mix = ad.add(sub(m, matmul(m, params.unif)), params.unif)
    tokens = sub(softplus(matmul(mix, h)), params.shift)
    return bb.EncodedClip(tokens=tokens, pooled=ad.mean_rows(tokens))


def reference_tape_classify(params, enc):
    """classify as the op-by-op tape built it: matmul, add, softmax_temp."""
    p = params.params
    return softmax_temp(
        ad.add(matmul(p["cls.W"], enc.pooled), p["cls.b"]), 1.0)


def reference_tape_spatial_embed(params, enc):
    """spatial_embed as the op-by-op tape built it: matmul, add,
    l2_normalize."""
    p = params.params
    return l2_normalize(
        ad.add(matmul(p["spat.W"], enc.pooled), p["spat.b"]))


def reference_tape_temporal_embed(params, scale_index, tokens):
    """temporal_embed as the op-by-op tape built it: mean_rows, matmul,
    add."""
    p = params.params
    return ad.add(matmul(p[f"temp{scale_index}.W"], ad.mean_rows(tokens)),
                  p[f"temp{scale_index}.b"])


def reference_tape_alignment_loss(student_logits, teacher_logits, tau_s,
                                  tau_t):
    """mtl.alignment_loss as the op-by-op tape built it: two softmax_temp,
    log, dot, scale by -1."""
    p_q = softmax_temp(student_logits, tau_s)
    p_k = softmax_temp(teacher_logits, tau_t)
    return ad.scale(dot(p_k, log(p_q)), -1.0)


def reference_tape_acl_loss(anchor, sel, tau):
    """acl.acl_loss as the op-by-op tape built it: matmul, scale, exp and
    tsum per set, add, log, log, sub."""
    anchor = ad.as_tensor(anchor)
    pos = ad.Tensor(sel.positives)
    s_pos = tsum(exp(ad.scale(matmul(pos, anchor), 1.0 / tau)))
    if len(sel.negatives):
        neg = ad.Tensor(sel.negatives)
        s_neg = tsum(exp(ad.scale(matmul(neg, anchor), 1.0 / tau)))
        total = ad.add(s_pos, s_neg)
    else:
        total = s_pos
    return sub(log(total), log(s_pos))


# the fused loss-side heads and their op-by-op references, in one order
FUSED_HEADS = (bb.spatial_embed, bb.temporal_embed, mtl.alignment_loss,
               acl.acl_loss)
REFERENCE_HEADS = (reference_tape_spatial_embed, reference_tape_temporal_embed,
                   reference_tape_alignment_loss, reference_tape_acl_loss)


def tape_nodes(out):
    """Number of nodes with a backward closure that backward() from out
    would run."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if node in seen or not node.requires_grad:
            continue
        seen.add(node)
        stack.extend(node._parents)
    return sum(node._backward_fn is not None for node in seen)


def default_dims():
    """The dims of a run with the default configs, as TrainerState fills
    them."""
    ds = SynthDataset(DatasetConfig())
    return tr.TrainerState(tr.TrainConfig(), ds).student.dims


class TestEncodeBitIdentity:
    @pytest.mark.parametrize("make_dims", [lambda: DIMS, default_dims],
                             ids=["small", "default"])
    @pytest.mark.parametrize("role", ["student", "teacher"])
    def test_matches_reference_encode(self, make_dims, role):
        dims = make_dims()
        student = bb.ParamSet.init(dims, np.random.default_rng(3), True)
        params = student if role == "student" else student.copy_as_teacher()
        rng = np.random.default_rng(8)
        for _ in range(5):
            frames = rng.normal(size=(dims.clip_len, dims.d_in))
            enc = bb.encode(params, make_clip(frames))
            tokens, pooled = reference_encode(params, frames)
            assert np.array_equal(enc.tokens.data, tokens)
            assert np.array_equal(enc.pooled.data, pooled)

    @pytest.mark.parametrize("make_dims", [lambda: DIMS, default_dims],
                             ids=["small", "default"])
    def test_gradients_match_reference_tape(self, make_dims):
        # three clips share the parameters, so the test also sees the order
        # in which the clips' contributions reach each gradient; the loss
        # reads tokens through a temporal head and pooled through the
        # classifier and the spatial head
        dims = make_dims()
        rng = np.random.default_rng(11)
        clips = [rng.normal(size=(dims.clip_len, dims.d_in)) for _ in range(3)]
        c_spat = rng.normal(size=dims.d_e)
        c_temp = rng.normal(size=dims.d_k)

        def grads(enc_fn, cls_fn):
            s = bb.ParamSet.init(dims, np.random.default_rng(3), True)
            terms = []
            for i, frames in enumerate(clips):
                enc = enc_fn(s, frames)
                terms += [
                    ad.cross_entropy(cls_fn(s, enc), i % dims.n_classes),
                    dot(bb.spatial_embed(s, enc), ad.Tensor(c_spat)),
                    dot(bb.temporal_embed(s, 1 + i % dims.n_scales,
                                             enc.tokens), ad.Tensor(c_temp))]
            loss = terms[0]
            for t in terms[1:]:
                loss = ad.add(loss, t)
            loss.backward()
            return {k: v.grad for k, v in s.params.items()}

        got = grads(lambda s, f: bb.encode(s, make_clip(f)), bb.classify)
        want = grads(reference_tape_encode, reference_tape_classify)
        # the five encoder and classifier gradients, and the heads' too
        for k in want:
            assert want[k] is not None, k
            assert np.array_equal(got[k], want[k]), k

    def test_one_node_per_encode_and_per_classify(self):
        s = make_params(0)
        clip = make_clip(np.random.default_rng(0).normal(size=(4, 4)))
        enc = bb.encode(s, clip)
        leaves = set(s.params.values())
        assert set(enc.tokens._parents) <= leaves
        assert enc.pooled._parents == (enc.tokens,)
        assert tape_nodes(enc.pooled) == 2
        probs = bb.classify(s, enc)
        assert set(probs._parents) <= leaves | {enc.pooled}
        assert tape_nodes(probs) == 3
        # the loss-side heads: a student call adds one node to the tape
        rng = np.random.default_rng(1)
        target = rng.normal(size=DIMS.d_k)
        sel = acl.AclSelection(positives=rng.normal(size=(2, DIMS.d_e)),
                               negatives=rng.normal(size=(3, DIMS.d_e)),
                               anchor_reliability=1.0, used_fallback=False)
        no_neg = acl.AclSelection(positives=sel.positives,
                                  negatives=sel.negatives[:0],
                                  anchor_reliability=1.0, used_fallback=False)
        anchor = bb.spatial_embed(s, enc)
        assert set(anchor._parents) <= leaves | {enc.pooled}
        assert tape_nodes(anchor) == tape_nodes(enc.pooled) + 1
        logits = bb.temporal_embed(s, 1, enc.tokens)
        assert set(logits._parents) <= leaves | {enc.tokens}
        assert tape_nodes(logits) == tape_nodes(enc.tokens) + 1
        align = mtl.alignment_loss(logits, target, 0.1, 0.04)
        assert align._parents == (logits,)
        assert tape_nodes(align) == tape_nodes(logits) + 1
        for selection in (sel, no_neg):
            loss = acl.acl_loss(anchor, selection, 0.07)
            assert loss._parents == (anchor,)
            assert tape_nodes(loss) == tape_nodes(anchor) + 1
        # and a teacher call records none
        t = s.copy_as_teacher()
        enc_t = bb.encode(t, clip)
        anchor_t = bb.spatial_embed(t, enc_t)
        logits_t = bb.temporal_embed(t, 1, enc_t.tokens)
        for node in (enc_t.tokens, enc_t.pooled, bb.classify(t, enc_t),
                     anchor_t, logits_t,
                     mtl.alignment_loss(logits_t, target, 0.1, 0.04),
                     acl.acl_loss(anchor_t, sel, 0.07),
                     acl.acl_loss(anchor_t, no_neg, 0.07)):
            assert node._parents == ()
            assert node._backward_fn is None
            assert not node.requires_grad

    def test_shared_constants_survive_student_backward(self):
        s = make_params(0)
        clip = make_clip(np.random.default_rng(0).normal(size=(4, 4)))
        for _ in range(2):
            s.zero_grad()
            ad.cross_entropy(bb.classify(s, bb.encode(s, clip)), 0).backward()
            assert s.params["enc.M"].grad is not None
            for const, want in ((s.unif, np.full((4, 4), 0.25)),
                                (s.shift, np.full((4, 6), np.log(2.0)))):
                assert isinstance(const, np.ndarray)
                assert not const.flags.writeable
                assert np.array_equal(const, want)


class TestLossHeadsBitIdentity:
    """The four fused loss-side heads against their op-by-op chains: the same
    values and, through a loss that reads every one of them, the same
    gradient for every parameter, bit for bit."""

    @pytest.mark.parametrize("n_neg", [0, 1, 23], ids=["no-neg", "1-neg",
                                                       "23-neg"])
    @pytest.mark.parametrize("make_dims",
                             [lambda: DIMS, lambda: ODD_DIMS, default_dims],
                             ids=["small", "odd", "default"])
    def test_values_and_gradients_match_reference_tape(self, make_dims,
                                                       n_neg):
        # three clips share the parameters; each clip's tokens are read by
        # every temporal head, its pooled feature by the classifier and the
        # spatial head, and its anchor gets gradient from the positives and,
        # unless there are none, from the negatives
        dims = make_dims()
        rng = np.random.default_rng(12 + n_neg)

        def unit_rows(k):
            rows = rng.normal(size=(k, dims.d_e))
            return rows / np.linalg.norm(rows, axis=1, keepdims=True)

        clips = [rng.normal(size=(dims.clip_len, dims.d_in)) for _ in range(3)]
        targets = [[rng.normal(size=dims.d_k) for _ in range(dims.n_scales)]
                   for _ in clips]
        reads = [rng.normal(size=dims.d_e) for _ in clips]
        sels = [acl.AclSelection(positives=unit_rows(1 + i),
                                 negatives=unit_rows(n_neg),
                                 anchor_reliability=1.0, used_fallback=False)
                for i in range(len(clips))]

        def run(heads):
            spatial, temporal, align, contrast = heads
            s = bb.ParamSet.init(dims, np.random.default_rng(3), True)
            terms = []
            for i, frames in enumerate(clips):
                enc = bb.encode(s, make_clip(frames))
                anchor = spatial(s, enc)
                # a third reader of the anchor, so that the order of the
                # InfoNCE's two contributions shows in its rounding
                terms += [anchor, dot(anchor, ad.Tensor(reads[i])),
                          contrast(anchor, sels[i], tr.TAU),
                          ad.cross_entropy(bb.classify(s, enc),
                                           i % dims.n_classes)]
                for n, target in enumerate(targets[i], start=1):
                    logits = temporal(s, n, enc.tokens)
                    terms += [logits, align(logits, target, tr.TAU_S,
                                            tr.TAU_T)]
            loss = terms[1]
            for t in terms[2:]:
                if t.data.shape == ():
                    loss = ad.add(loss, t)
            loss.backward()
            return ([t.data for t in terms],
                    {k: v.grad for k, v in s.params.items()})

        got_values, got = run(FUSED_HEADS)
        want_values, want = run(REFERENCE_HEADS)
        for a, b in zip(got_values, want_values, strict=True):
            assert np.array_equal(a, b)
        for k in want:
            assert want[k] is not None, k
            assert np.array_equal(got[k], want[k]), k

    def test_compute_losses_gradients_match_reference_tape(self, monkeypatch):
        # a real plan after warm-up steps, so that the bank, the prototypes,
        # the gates and the MTL centres are all live
        cfg = tr.TrainConfig(seed=0, clip_len=4, strides=(2, 4, 8), d_h=6,
                             d_e=4, d_k=5, bank_capacity=32, epochs=1,
                             delta=0.0, b_l=2, b_u=3)
        ds = SynthDataset(DatasetConfig(n_classes=4, per_class=6,
                                        labeled_fraction=0.34, d_in=4,
                                        video_len=40, noise=0.05, seed=0))
        state = tr.TrainerState(cfg, ds)
        rng = np.random.default_rng(0)
        for s in range(3):
            tr.train_step(state, ds.labeled[:2], ds.unlabeled[3*s:3*s+3], 0,
                          rng)
        plan = tr.prepare_step_plan(state, ds.labeled[:2], ds.unlabeled[:3],
                                    rng)
        assert any(len(it.selection.negatives) for it in plan.unlabeled)

        def run():
            state.student.zero_grad()
            total, parts = tr.compute_losses(state.student, state.teacher,
                                             plan, cfg)
            total.backward()
            return ([v.item() for v in parts.values()],
                    {k: p.grad for k, p in state.student.params.items()})

        got_values, got = run()
        spatial, temporal, align, contrast = REFERENCE_HEADS
        monkeypatch.setattr(bb, "spatial_embed", spatial)
        monkeypatch.setattr(mtl, "temporal_embed", temporal)
        monkeypatch.setattr(mtl, "alignment_loss", align)
        monkeypatch.setattr(acl, "acl_loss", contrast)
        want_values, want = run()
        assert got_values == want_values
        for k in want:
            assert np.array_equal(got[k], want[k]), k


class TestHeads:
    def test_classify_uniform_on_zero(self):
        params = make_params()
        for k in ("cls.W", "cls.b"):
            params.params[k].data[:] = 0.0
        enc = bb.encode(params, make_clip(np.random.default_rng(0).normal(size=(4, 4))))
        np.testing.assert_allclose(bb.classify(params, enc).data, np.ones(3) / 3)

    def test_classify_range(self):
        params = make_params(1)
        enc = bb.encode(params, make_clip(np.random.default_rng(1).normal(size=(4, 4))))
        probs = bb.classify(params, enc).data
        assert ((probs > 0) & (probs < 1)).all()
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_spatial_embed_unit_norm_and_deterministic(self):
        params = make_params(2)
        enc = bb.encode(params, make_clip(np.random.default_rng(2).normal(size=(4, 4))))
        e1 = bb.spatial_embed(params, enc).data
        e2 = bb.spatial_embed(params, bb.encode(params, make_clip(enc.tokens.data[:, :4]))).data
        assert abs(np.linalg.norm(e1) - 1.0) < 1e-9
        same = bb.spatial_embed(params, enc).data
        assert np.array_equal(e1, same)
        assert abs(np.linalg.norm(e2) - 1.0) < 1e-9

    def test_temporal_embed_zero_tokens(self):
        params = make_params(3)
        params.params["temp1.b"].data[:] = 0.0
        logits = bb.temporal_embed(params, 1, ad.Tensor(np.zeros((4, 6))))
        assert np.array_equal(logits.data, np.zeros(5))

    def test_temporal_heads_distinct(self):
        params = make_params(4)
        tokens = ad.Tensor(np.random.default_rng(3).normal(size=(4, 6)))
        z1 = bb.temporal_embed(params, 1, tokens).data
        z2 = bb.temporal_embed(params, 2, tokens).data
        assert not np.allclose(z1, z2)

    def test_scale_out_of_range(self):
        params = make_params()
        with pytest.raises(IndexError, match=r"scale 3 outside 1\.\."):
            bb.temporal_embed(params, 3, ad.Tensor(np.zeros((4, 6))))


class TestEmaUpdate:
    def test_copy_limit(self):
        s, t = make_params(0), make_params(1, trainable=False)
        bb.ema_update(t, s, 0.0)
        for k in s.names():
            np.testing.assert_array_equal(t.params[k].data, s.params[k].data)

    def test_frozen_limit(self):
        s, t = make_params(0), make_params(1, trainable=False)
        before = {k: t.params[k].data.copy() for k in t.names()}
        bb.ema_update(t, s, 1.0)
        for k in s.names():
            np.testing.assert_array_equal(t.params[k].data, before[k])

    def test_direct_formula(self):
        s, t = make_params(0), make_params(1, trainable=False)
        t.params["cls.b"].data[:] = 1.0
        s.params["cls.b"].data[:] = 0.0
        bb.ema_update(t, s, 0.999)
        np.testing.assert_allclose(t.params["cls.b"].data, 0.999)

    def test_geometric_convergence(self):
        s, t = make_params(0), make_params(1, trainable=False)
        m = 0.9
        gap = {k: t.params[k].data - s.params[k].data for k in s.names()}
        for step in range(1, 20):
            bb.ema_update(t, s, m)
            for k in s.names():
                expected = gap[k] * m ** step
                np.testing.assert_allclose(t.params[k].data - s.params[k].data,
                                           expected, atol=1e-9)

    def test_teacher_carries_no_grad(self):
        s = make_params(0)
        t = s.copy_as_teacher()
        clip = make_clip(np.random.default_rng(0).normal(size=(4, 4)))
        loss = ad.cross_entropy(bb.classify(t, bb.encode(t, clip)), 0)
        loss2 = ad.cross_entropy(bb.classify(s, bb.encode(s, clip)), 0)
        ad.add(loss, loss2).backward()
        assert all(p.grad is None for p in t.params.values())
        assert any(p.grad is not None for p in s.params.values())


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        s = make_params(0)
        t = make_params(1, trainable=False)
        path = tmp_path / "ckpt.json"
        bb.save_checkpoint(path, s, t, "h123")
        payload = json.loads(path.read_text())
        assert payload["config_hash"] == "h123"
        for role, pset in (("student", s), ("teacher", t)):
            assert sorted(payload["params"][role]) == pset.names()
            for k in pset.names():
                np.testing.assert_array_equal(
                    np.asarray(payload["params"][role][k]), pset.params[k].data)

    def test_failed_save_leaves_previous_checkpoint(self, tmp_path):
        s = make_params(0)
        t = s.copy_as_teacher()
        path = tmp_path / "ckpt.json"
        bb.save_checkpoint(path, s, t, "h123")
        before = path.read_bytes()
        # json cannot encode this entry, so the dump fails part-way through
        s.params["spat.b"].data = np.array([object()], dtype=object)
        with pytest.raises(TypeError):
            bb.save_checkpoint(path, s, t, "h123")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]
