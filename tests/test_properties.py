"""Invariant suite: every library-wide property encoded as an automated test.

The check_* functions are plain assertions over concrete inputs so the
acceptance suite can re-drive them with its own seeds; the tests below feed
them from hypothesis strategies or seeded generators.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcbench.arc import (
    W_MODES,
    ArcConfig,
    adaptive_correction,
    adaptive_retention,
    arc_evaluate,
    tss,
)
from arcbench.core import (
    LinearHead,
    TaskLayout,
    TrainConfig,
    expand_head,
    forward,
    loss_gradient,
    sgd_step,
    softmax,
)
from arcbench.data import SyntheticSpec, generate_synthetic, load_embeddings, streams_equal, write_embeddings
from arcbench.harness import run_stream, train_sequence
from arcbench.otd import (
    RECORD_DTYPE,
    OtdDecision,
    Thresholds,
    classify_sample,
    masked_confidence,
    misclassified,
)

from oracles import cross_entropy, entropy, fd_gradient, relative_error

logits_arrays = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=24
).map(lambda vals: np.array(vals, dtype=np.float64))


# ---------------------------------------------------------------- core

def check_softmax_shift_invariance(z, shift):
    assert np.max(np.abs(softmax(z + shift) - softmax(z))) <= 1e-12


def check_prob_vector(z):
    p = softmax(z)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p >= 0)


def check_gradient_against_finite_differences(rng, k, d):
    head = LinearHead(rng.standard_normal((k, d)), rng.standard_normal(k), 1)
    x = rng.standard_normal(d)
    label = int(rng.integers(0, k))

    def loss(w, b):
        p = softmax(forward(LinearHead(w, b, 1), x))
        return cross_entropy(p, label) + entropy(p)

    dw, db, _ = loss_gradient(forward(head, x[None]), x[None], np.array([label]), True, True)
    fd_dw, fd_db = fd_gradient(loss, head.weights, head.bias, step=1e-4)
    assert relative_error(dw, fd_dw) <= 1e-5
    assert relative_error(db, fd_db) <= 1e-5


def check_expansion_preserves_logits(rng, layout, d, n=1):
    head = LinearHead(rng.standard_normal((layout.step, d)), rng.standard_normal(layout.step), 1)
    x = rng.standard_normal((n, d))
    before = forward(head, x)
    grown = expand_head(head, layout)
    assert np.array_equal(forward(grown, x)[:, : layout.step], before)
    for row, logits in zip(x, before):
        assert np.array_equal(forward(grown, row)[: layout.step], logits)


def check_sgd_step_reversible(rng, k, d):
    head = LinearHead(rng.standard_normal((k, d)), rng.standard_normal(k), 1)
    dw, db = rng.standard_normal((k, d)), rng.standard_normal(k)
    there = sgd_step(head, dw, db, lr=0.37)
    back = sgd_step(there, dw, db, lr=-0.37)
    assert np.max(np.abs(back.weights - head.weights)) <= 1e-12
    assert np.max(np.abs(back.bias - head.bias)) <= 1e-12


@given(logits_arrays, st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(deadline=None, max_examples=80)
def test_softmax_shift_invariance(z, shift):
    check_softmax_shift_invariance(z, shift)


@given(logits_arrays)
@settings(deadline=None, max_examples=80)
def test_prob_vector_sums_to_one(z):
    check_prob_vector(z)


@pytest.mark.parametrize("seed", range(8))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(1000 + seed)
    check_gradient_against_finite_differences(rng, k=int(rng.integers(2, 13)),
                                              d=int(rng.integers(2, 9)))


@pytest.mark.parametrize("seed", range(5))
def test_expansion_preserves_old_logits(seed):
    rng = np.random.default_rng(2000 + seed)
    check_expansion_preserves_logits(rng, TaskLayout(num_tasks=3, step=int(rng.integers(1, 6))),
                                     d=int(rng.integers(2, 10)), n=int(rng.integers(1, 40)))


@pytest.mark.parametrize("d", [64, 768])
@pytest.mark.parametrize("seed", range(3))
def test_expansion_preserves_old_logits_default_step(seed, d):
    # the default head shape (step 10) and a ViT-sized feature; a matmul
    # forward breaks the batch case at D=64
    rng = np.random.default_rng(2100 + seed)
    check_expansion_preserves_logits(rng, TaskLayout(num_tasks=3, step=10), d,
                                     n=int(rng.integers(2, 100)))


@pytest.mark.parametrize("d, k", [(768, 20), (3, 7)])
@given(data=st.data())
@settings(deadline=None, max_examples=25)
def test_forward_batch_size_invariance(d, k, data):
    n = data.draw(st.integers(1, 60), label="n")
    cuts = data.draw(st.lists(st.integers(0, n), max_size=5).map(sorted), label="cuts")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    head = LinearHead(rng.standard_normal((k, d)), rng.standard_normal(k), 1)
    x = rng.standard_normal((n, d))
    full = forward(head, x)
    split = np.vstack([forward(head, part) for part in np.split(x, cuts)])
    assert np.array_equal(split, full)
    assert np.array_equal(forward(head, np.asfortranarray(x)), full)
    for row, logits in zip(x, full):
        assert np.array_equal(forward(head, row), logits)


@pytest.mark.parametrize("seed", range(5))
def test_sgd_step_reversible(seed):
    rng = np.random.default_rng(3000 + seed)
    check_sgd_step_reversible(rng, 4, 3)


# ---------------------------------------------------------------- otd

@st.composite
def logit_batches(draw, max_t=4):
    """(t, s, z) with z of shape (n, s*t), t <= max_t: random rows with ties
    from small integer values, all-equal rows, and rows shifted by +-1e3."""
    t, s, n = draw(st.integers(1, max_t)), draw(st.integers(1, 4)), draw(st.integers(1, 8))
    value = st.one_of(st.integers(-2, 2).map(float),
                      st.floats(min_value=-30, max_value=30, allow_nan=False))
    rows = []
    for _ in range(n):
        if draw(st.booleans()):
            row = [draw(value)] * (s * t)
        else:
            row = draw(st.lists(value, min_size=s * t, max_size=s * t))
        rows.append(np.array(row) + draw(st.sampled_from([0.0, 1e3, -1e3])))
    return t, s, np.array(rows)


@given(logit_batches(),
       st.sampled_from([Thresholds(0.8, 0.8), Thresholds(0.5, 0.9), Thresholds(0.0, np.inf)]),
       st.sampled_from(W_MODES))
@settings(deadline=None, max_examples=150)
def test_batch_detection_equals_row_by_row(batch, thresholds, w_mode):
    t, s, z = batch
    records = classify_sample(z, t, s, thresholds, w_mode)
    assert records.dtype.names == RECORD_DTYPE.names and records.shape == (len(z),)
    # masked_confidence and ratio are NaN at t = 1 and positive and finite after
    for name in ("masked_confidence", "ratio"):
        assert np.isnan(records[name]).all() if t == 1 else (records[name] > 0).all()
    for i in range(len(z)):
        row = classify_sample(z[i:i + 1], t, s, thresholds, w_mode)
        assert row.decision[0] is records.decision[i]
        for name in RECORD_DTYPE.names:
            if name != "decision":  # bit equality, NaN included
                assert row[name].tobytes() == records[name][i:i + 1].tobytes(), name


@given(logit_batches(max_t=5),
       st.sampled_from([Thresholds(0.8, 0.8), Thresholds(0.0, 0.5), Thresholds(0.5, 1.0),
                        Thresholds(0.0, np.inf)]),
       st.sampled_from(W_MODES))
@settings(deadline=None, max_examples=150)
def test_misclassified_is_the_past_misclassified_branch(batch, thresholds, w_mode):
    t, s, z = batch
    records = classify_sample(z, t, s, thresholds, w_mode)
    assert np.array_equal(misclassified(records, t, s, thresholds.gamma, w_mode),
                          records.decision == OtdDecision.PAST_MISCLASSIFIED)


def _detect(z, t, s, thresholds):
    """One sample's logits (s*t,) through classify_sample as a one-row batch."""
    (rec,) = classify_sample(z[None], t, s, thresholds)
    return rec


def check_first_stage_passthrough(z):
    rec = _detect(z, t=1, s=len(z), thresholds=Thresholds(0.0, np.inf))
    assert rec.decision is OtdDecision.PASSTHROUGH


def check_branch_ranges(z, t, s, thresholds):
    rec = _detect(z, t, s, thresholds)
    past = rec.initial_class < s * (t - 1)
    if rec.decision is OtdDecision.PAST_CORRECT:
        assert past
    if rec.decision is OtdDecision.PAST_MISCLASSIFIED:
        assert not past


def check_threshold_monotonicity(z, t, s):
    for lo, hi in ((0.2, 0.7), (0.5, 0.95)):
        d_lo = _detect(z, t, s, Thresholds(beta=lo, gamma=0.8)).decision
        d_hi = _detect(z, t, s, Thresholds(beta=hi, gamma=0.8)).decision
        if d_hi is OtdDecision.PAST_CORRECT:
            assert d_lo is OtdDecision.PAST_CORRECT
        g_lo = _detect(z, t, s, Thresholds(beta=0.8, gamma=lo)).decision
        g_hi = _detect(z, t, s, Thresholds(beta=0.8, gamma=hi)).decision
        if g_lo is OtdDecision.PAST_MISCLASSIFIED:
            assert g_hi is OtdDecision.PAST_MISCLASSIFIED


def check_masked_confidence_prefix_only(z, t, s, rng):
    base = masked_confidence(z[None], t, s)
    bumped = z.copy()
    bumped[s * (t - 1):] += rng.standard_normal(s) * 50
    assert masked_confidence(bumped[None], t, s) == base


def check_extreme_thresholds(z, t, s):
    predicted = int(np.argmax(z))
    d_beta0 = _detect(z, t, s, Thresholds(beta=0.0, gamma=0.8)).decision
    if predicted < s * (t - 1):
        assert d_beta0 is OtdDecision.PAST_CORRECT
    d_ginf = _detect(z, t, s, Thresholds(beta=0.8, gamma=np.inf)).decision
    if t >= 2 and predicted >= s * (t - 1):
        assert d_ginf is OtdDecision.PAST_MISCLASSIFIED


@given(logits_arrays)
@settings(deadline=None, max_examples=60)
def test_first_stage_always_passthrough(z):
    check_first_stage_passthrough(z)


@pytest.mark.parametrize("seed", range(10))
def test_branch_structure_and_monotonicity(seed):
    rng = np.random.default_rng(4000 + seed)
    t, s = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    for _ in range(40):
        z = 2.5 * rng.standard_normal(s * t)
        check_branch_ranges(z, t, s, Thresholds(0.6, 0.9))
        check_threshold_monotonicity(z, t, s)
        check_masked_confidence_prefix_only(z, t, s, rng)
        check_extreme_thresholds(z, t, s)


# ---------------------------------------------------------------- arc

def check_correction_containment(z, t, s):
    task, cls, _ = adaptive_correction(z, t, s, temperature=2.0)
    assert s * (task - 1) <= cls < s * task


def check_tss_prefix_locality(z, t, s, rng):
    base = tss(z, t, s, temperature=2.0)
    for i in range(1, t):
        bumped = z.copy()
        bumped[s * i:] += rng.standard_normal(len(z) - s * i) * 30
        assert np.array_equal(tss(bumped, t, s, 2.0)[:i], base[:i])


def check_tss_temperature_one(z, t, s):
    scores = tss(z, t, s, temperature=1.0)
    for i in range(1, t + 1):
        plain = float(np.max(softmax(z[: s * i])[s * (i - 1): s * i]))
        assert scores[i - 1] == plain


def check_decision_shift_invariance(z, t, s, shift):
    th = Thresholds(0.8, 0.8)
    d0 = _detect(z, t, s, th).decision
    d1 = _detect(z + shift, t, s, th).decision
    assert d0 is d1
    if d0 is OtdDecision.PAST_MISCLASSIFIED:
        _, cls0, _ = adaptive_correction(z, t, s, 2.0)
        _, cls1, _ = adaptive_correction(z + shift, t, s, 2.0)
        assert cls0 == cls1


def check_retention_leaves_features_alone(rng):
    head = LinearHead(rng.standard_normal((6, 4)), rng.standard_normal(6), 2)
    x = rng.standard_normal((10, 4))
    snapshot = x.copy()
    updated, _, _ = adaptive_retention(head, x, forward(head, x), ArcConfig())
    assert np.array_equal(x, snapshot)
    assert updated.weights.shape == head.weights.shape
    assert updated.bias.shape == head.bias.shape


def check_one_update_per_batch(rng):
    s, t = 2, 2
    means = 3.0 * rng.standard_normal((s * t, 5))
    head = LinearHead(means.copy(), np.zeros(s * t), t)
    labels = rng.integers(0, s * t, 48)
    x = means[labels] + 0.4 * rng.standard_normal((48, 5))
    batches = [x[i: i + 12] for i in range(0, 48, 12)]
    cfg = ArcConfig(thresholds=Thresholds(beta=0.0, gamma=0.0))
    result = arc_evaluate(head, batches, t, s, [cfg])
    expected = sum(
        any(r.decision is OtdDecision.PAST_CORRECT for r in result.records[i: i + 12])
        for i in range(0, 48, 12)
    )
    assert result.retention_updates == expected


@given(logit_batches(), st.sampled_from([1.0, 2.0, 3.5]))
@settings(deadline=None, max_examples=150)
def test_batch_tss_and_correction_equal_row_by_row(batch, temperature):
    t, s, z = batch
    scores = tss(z, t, s, temperature)
    tasks, classes, correction_scores = adaptive_correction(z, t, s, temperature)
    assert scores.shape == (len(z), t)
    assert np.array_equal(correction_scores, scores)
    for i, row in enumerate(z):
        assert np.array_equal(tss(row, t, s, temperature), scores[i])
        task, cls, _ = adaptive_correction(row, t, s, temperature)
        assert (task, cls) == (tasks[i], classes[i])


@pytest.mark.parametrize("seed", range(10))
def test_correction_and_tss_properties(seed):
    rng = np.random.default_rng(5000 + seed)
    t, s = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    for _ in range(25):
        z = 3.0 * rng.standard_normal(s * t)
        check_correction_containment(z, t, s)
        check_tss_prefix_locality(z, t, s, rng)
        check_tss_temperature_one(z, t, s)
        check_decision_shift_invariance(z, t, s, float(rng.uniform(-40, 40)))


@pytest.mark.parametrize("seed", range(3))
def test_retention_and_update_counting(seed):
    rng = np.random.default_rng(6000 + seed)
    check_retention_leaves_features_alone(rng)
    check_one_update_per_batch(rng)


# ---------------------------------------------------------------- data + harness

SMALL_SPEC = SyntheticSpec(num_tasks=3, step=2, dim=8, train_per_class=10,
                           test_per_class=8, seed=9)
FAST_TRAIN = TrainConfig(epochs=6, lr=1.0, batch_size=16, weight_decay=1e-3)


def check_stream_determinism_and_containment(spec):
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert streams_equal(a, b)
    a.validate()  # raises on any class-range violation


def check_embedding_round_trip(spec, path):
    stream = generate_synthetic(spec)
    write_embeddings(stream, path)
    assert streams_equal(stream, load_embeddings(path))


def check_run_invariants(stream, train_cfg, seed):
    res = run_stream(stream, train_cfg, ArcConfig(batch_size=8), seed)
    n = stream.layout.num_tasks
    for r in (res.r_with_arc, res.r_without_arc):
        for t in range(1, n + 1):
            row = r.row(t)
            assert len(row) == t and np.all((row >= 0) & (row <= 1))
    # metrics match an independent reduction of the stored matrix
    final = res.r_with_arc.row(n)
    assert abs(res.metrics_with_arc.average_accuracy - sum(final) / n) <= 1e-12
    drops = [res.r_with_arc.entry(i, i) - res.r_with_arc.entry(n, i) for i in range(1, n)]
    assert abs(res.metrics_with_arc.forgetting - sum(drops) / (n - 1)) <= 1e-12
    # histogram conservation
    wrong = np.sum(res.task1_predictions != res.task1_labels)
    assert res.bias_histogram.sum() == wrong
    # evaluation isolation: training alone reproduces the stage heads bit for bit
    heads = train_sequence(stream, train_cfg, seed)
    for trained, kept in zip(heads, res.stage_heads):
        assert np.array_equal(trained.weights, kept.weights)
        assert np.array_equal(trained.bias, kept.bias)
    # pipeline-off equivalence
    off = run_stream(stream, train_cfg,
                     ArcConfig(retention_enabled=False, correction_enabled=False,
                               batch_size=8), seed)
    assert np.allclose(off.r_with_arc.values, off.r_without_arc.values, equal_nan=True)
    return res


def test_stream_determinism_and_containment():
    check_stream_determinism_and_containment(SMALL_SPEC)


def test_embedding_round_trip(tmp_path):
    check_embedding_round_trip(SMALL_SPEC, str(tmp_path / "round.emb1"))


def test_run_level_invariants():
    check_run_invariants(generate_synthetic(SMALL_SPEC), FAST_TRAIN, seed=9)


def test_run_determinism():
    stream = generate_synthetic(SMALL_SPEC)
    a = run_stream(stream, FAST_TRAIN, ArcConfig(batch_size=8), seed=9)
    b = run_stream(stream, FAST_TRAIN, ArcConfig(batch_size=8), seed=9)
    assert a.metrics_with_arc == b.metrics_with_arc
    assert len(a.arc_traces) == len(b.arc_traces)
    for ta, tb in zip(a.arc_traces, b.arc_traces):
        assert ta.records.dtype == tb.records.dtype
        for name in ta.records.dtype.names:
            ca, cb = ta.records[name], tb.records[name]
            assert np.array_equal(ca, cb, equal_nan=ca.dtype.kind == "f"), name
