import math
import warnings
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from querystance.codec import FieldError, from_doc, read_json, to_doc, write_json
from querystance.errors import (
    CorruptModel,
    DimensionMismatch,
    NonFinite,
    SingleClassInput,
)
from querystance import svm as svm_module
from querystance.features import FeatureBatch, SparseRows
from querystance.pipeline import PipelineConfig, train_task2
from querystance.svm import (
    KERNEL_KINDS,
    PREDICT_CHUNK_ROWS,
    PREDICT_DENSE_SHARE,
    BinaryModel,
    KernelConfig,
    MulticlassModel,
    SupportVectorPool,
    SvmConfig,
    WeightsModel,
    _gram,
    _mapped,
    _monomials,
    _smo,
    decision_value,
    decision_values,
    dual_objective,
    predict,
    predict_batch,
    train_binary,
    train_multiclass,
    weights_form,
)

from oracles import (
    decision_tolerance,
    decision_values_reference,
    kernel_eval,
    ovo_reference,
    smo_reference,
    solve_dual_bruteforce,
)
from svm_fixtures import fixture_instances, kkt_satisfied, overlapping_rows, training_alphas


def _save(model, path):
    write_json(path, to_doc(model))


def _load(path):
    return from_doc(MulticlassModel, read_json(path), path)


def _one_pair(cfg, u, v) -> float:
    """The kernel value of u and v, through the kernel-matrix code."""
    gram = _gram(cfg, np.array([u], dtype=np.float64), np.array([v], dtype=np.float64))
    assert gram.shape == (1, 1)
    return float(gram[0, 0])


# quarter steps in [-4, 4]: every dot product of such rows is exact, whatever
# order a matrix product sums in, so the comparison tests the kernel formulas
_QUARTERS = st.integers(-16, 16).map(lambda k: k / 4)
_KERNELS = st.one_of(
    st.just(KernelConfig("linear")),
    st.builds(
        lambda gamma, degree, coef0: KernelConfig("poly", gamma=gamma, degree=degree, coef0=coef0),
        st.floats(0.01, 2.0), st.integers(1, 4), st.floats(0.0, 2.0),
    ),
    st.builds(lambda gamma: KernelConfig("rbf", gamma=gamma), st.floats(0.01, 2.0)),
)


class TestKernelEval:
    def test_rbf_self_is_one(self):
        cfg = KernelConfig("rbf", gamma=0.7)
        for u in ([0.0, 0.0], [1.5, -2.0], [3.0]):
            assert _one_pair(cfg, u, u) == 1.0

    def test_linear_orthogonal(self):
        assert _one_pair(KernelConfig("linear"), [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_poly_reference_settings(self):
        cfg = KernelConfig("poly", gamma=0.006, degree=3, coef0=0.0)
        u = [10.0, 0.0]
        v = [1.0, 0.0]
        assert _one_pair(cfg, u, v) == pytest.approx(0.06**3, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(cfg=_KERNELS, data=st.data())
    def test_gram_matches_one_pair_oracle(self, cfg, data):
        dims = data.draw(st.integers(1, 5))
        rows = st.lists(st.lists(_QUARTERS, min_size=dims, max_size=dims), min_size=1, max_size=4)
        a, b = np.array(data.draw(rows)), np.array(data.draw(rows))
        gram = _gram(cfg, a, b)
        expected = np.array([[kernel_eval(cfg, u, v) for v in b] for u in a])
        np.testing.assert_allclose(gram, expected, rtol=1e-12, atol=0.0)

    def test_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 3))
        for cfg in (
            KernelConfig("linear"),
            KernelConfig("poly", gamma=0.5, degree=3, coef0=1.0),
            KernelConfig("rbf", gamma=0.8),
        ):
            gram = _gram(cfg, pts, pts)
            assert np.array_equal(gram, gram.T)
        rbf = _gram(KernelConfig("rbf", gamma=0.8), pts, pts)
        np.testing.assert_allclose(np.diag(rbf), 1.0, atol=1e-15)

    def test_bad_config_rejected(self):
        # each error names its field; a count must be an int, not a float or a bool
        for field, bad in (
            ("kind", lambda: KernelConfig("sigmoid")),
            ("gamma", lambda: KernelConfig("rbf", gamma=0.0)),
            ("degree", lambda: KernelConfig("poly", degree=0)),
            ("degree", lambda: KernelConfig("poly", degree=2.5)),
            ("degree", lambda: KernelConfig("poly", degree=3.0)),
            ("degree", lambda: KernelConfig("poly", degree=True)),
            ("gamma", lambda: KernelConfig("rbf", gamma=float("inf"))),
            ("gamma", lambda: KernelConfig("rbf", gamma=float("nan"))),
            ("coef0", lambda: KernelConfig("poly", coef0=float("nan"))),
            ("c", lambda: SvmConfig(c=float("nan"))),
            ("c", lambda: SvmConfig(c=float("inf"))),
            ("tol", lambda: SvmConfig(tol=float("inf"))),
            ("tol", lambda: SvmConfig(tol=2.0)),
            ("tol", lambda: SvmConfig(tol=1e9)),
            ("max_passes", lambda: SvmConfig(max_passes=0)),
            ("max_passes", lambda: SvmConfig(max_passes=1.5)),
            ("max_passes", lambda: SvmConfig(max_passes=True)),
        ):
            with pytest.raises(ValueError, match=rf"\b{field} must "):
                bad()
        # numpy integers are counts too
        assert KernelConfig("poly", degree=np.int64(3)).degree == 3
        assert SvmConfig(max_passes=np.int64(2)).max_passes == 2


class TestTrainBinary:
    def test_analytic_toy(self):
        cfg = SvmConfig(c=1e7, kernel=KernelConfig("linear"))
        model = train_binary([[-1.0], [1.0]], [-1, 1], cfg)
        np.testing.assert_allclose(sorted(model.dual_coefs), [-0.5, 0.5], atol=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)
        assert decision_value(model, [1.0], cfg.kernel) == pytest.approx(1.0, abs=1e-6)
        assert decision_value(model, [-1.0], cfg.kernel) == pytest.approx(-1.0, abs=1e-6)
        assert dual_objective(model, cfg.kernel) == pytest.approx(0.5, abs=1e-9)

    def test_xor_rbf(self):
        cfg = SvmConfig(c=1e7, kernel=KernelConfig("rbf", gamma=1.0))
        points = [[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]
        labels = [1, 1, -1, -1]
        model = train_binary(points, labels, cfg)
        for point, label in zip(points, labels):
            assert math.copysign(1, decision_value(model, point, cfg.kernel)) == label

    def test_single_class_rejected(self):
        cfg = SvmConfig(kernel=KernelConfig("linear"))
        with pytest.raises(SingleClassInput):
            train_binary([[0.0], [1.0]], [1, 1], cfg)

    def test_nonfinite_rejected(self):
        cfg = SvmConfig(kernel=KernelConfig("linear"))
        with pytest.raises(NonFinite):
            train_binary([[float("nan")], [1.0]], [-1, 1], cfg)

    def test_bad_labels_rejected(self):
        cfg = SvmConfig(kernel=KernelConfig("linear"))
        with pytest.raises(ValueError):
            train_binary([[0.0], [1.0]], [0, 1], cfg)

    def test_mixed_dims_rejected(self):
        cfg = SvmConfig(kernel=KernelConfig("linear"))
        with pytest.raises(DimensionMismatch):
            train_binary([[0.0], [1.0, 2.0]], [-1, 1], cfg)

    def test_fewer_labels_than_rows_rejected(self):
        cfg = SvmConfig(kernel=KernelConfig("linear"))
        with pytest.raises(DimensionMismatch, match="2 vectors but 1 labels"):
            train_binary([[0.0], [1.0]], [1], cfg)

    def test_nan_coefficient_rejected(self):
        with pytest.raises(ValueError, match="dual_coefs and bias must be finite"):
            BinaryModel(np.array([0]), np.array([math.nan]), 0.0)

    def test_dual_feasibility(self):
        for name, x, y, cfg in fixture_instances():
            model = train_binary(x, y, cfg)
            alphas = np.abs(model.dual_coefs)
            assert np.all(alphas >= 0.0) and np.all(alphas <= cfg.c), name
            assert abs(model.dual_coefs.sum()) <= 1e-6 * cfg.c, name

    def test_separable_training_accuracy_is_perfect(self):
        rng = np.random.default_rng(8)
        x = np.vstack([rng.normal(-3, 0.5, (20, 2)), rng.normal(3, 0.5, (20, 2))])
        y = [-1] * 20 + [1] * 20
        cfg = SvmConfig(c=1e7, kernel=KernelConfig("linear"))
        model = train_binary(x, y, cfg)
        for row, label in zip(x, y):
            assert decision_value(model, row, cfg.kernel) * label > 0


class TestAgainstDualOracle:
    @pytest.mark.parametrize("name,x,y,cfg", fixture_instances())
    def test_objective_matches_enumeration(self, name, x, y, cfg):
        model = train_binary(x, y, cfg)
        achieved = dual_objective(model, cfg.kernel)
        expected, _ = solve_dual_bruteforce(_gram(cfg.kernel, x, x), y, cfg.c)
        assert achieved == pytest.approx(expected, rel=1e-4, abs=1e-8), name

    @pytest.mark.parametrize("name,x,y,cfg", fixture_instances())
    def test_kkt_conditions(self, name, x, y, cfg):
        model = train_binary(x, y, cfg)
        assert kkt_satisfied(model, cfg, np.asarray(x, dtype=float), y, tol=1e-3), name

    def test_free_support_vector_on_margin(self):
        cfg = SvmConfig(c=1e7, kernel=KernelConfig("linear"))
        x = np.array([[-1.0], [1.0]])
        model = train_binary(x, [-1, 1], cfg)
        alphas = training_alphas(model, x)
        for row, alpha in zip(x, alphas):
            if 0 < alpha < cfg.c:
                assert abs(decision_value(model, row, cfg.kernel)) == pytest.approx(1.0, abs=1e-3)


class TestOverlappingScale:
    """Hundreds of overlapping rows with duplicates, alphas at the C bound."""

    @pytest.mark.parametrize(
        "kernel",
        [KernelConfig("rbf", gamma=5.0), KernelConfig("poly", gamma=0.006, degree=3)],
        ids=lambda k: k.kind,
    )
    def test_kkt_and_identical_files(self, kernel, tmp_path):
        x, y = overlapping_rows()
        cfg = SvmConfig(c=1e7, kernel=kernel)
        names = np.where(y > 0, "pos", "neg")
        models = [train_multiclass(x, names, cfg) for _ in range(2)]
        machine = models[0].machines[0]
        assert np.abs(machine.dual_coefs).max() == cfg.c
        assert kkt_satisfied(machine, cfg, x, y, tol=1e-3)
        for i, model in enumerate(models):
            _save(model, tmp_path / f"model{i}.json")
        assert (tmp_path / "model0.json").read_bytes() == (tmp_path / "model1.json").read_bytes()

    def test_iteration_cap_warns(self):
        x, y = overlapping_rows()
        cfg = SvmConfig(c=1e7, kernel=KernelConfig("rbf", gamma=5.0), max_passes=1)
        warning = r"'\+1' vs '-1': KKT gap \S+ > tol 0.001 at the cap of 300 pair updates \(max_passes 1\)$"
        with pytest.warns(RuntimeWarning, match=warning):
            train_binary(x, y, cfg)

    def test_cap_warning_names_the_caller(self):
        """train_binary and train_multiclass warn with the same message, at the
        line that called them, not inside svm.py."""
        x, y = overlapping_rows()
        cfg = SvmConfig(c=1e7, kernel=KernelConfig("rbf", gamma=5.0), max_passes=1)
        gap = _smo(_gram(cfg.kernel, x, x), y, cfg)[2]
        tail = f"KKT gap {gap:.3g} > tol 0.001 at the cap of 300 pair updates (max_passes 1)"
        for train, machine in [
            (lambda: train_binary(x, y, cfg), "'+1' vs '-1'"),
            (lambda: train_multiclass(x, np.where(y > 0, "pos", "neg").tolist(), cfg), "'pos' vs 'neg'"),
        ]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                train()
            assert [(w.category, str(w.message), w.filename) for w in caught] == [
                (RuntimeWarning, f"machine {machine}: {tail}", __file__)
            ]

    def test_numpy_string_labels_become_str(self):
        """Labels given as a numpy string array print as their text in the cap
        warning, and the model keeps them as plain str."""
        x, y = overlapping_rows()
        cfg = SvmConfig(c=1e7, kernel=KernelConfig("rbf", gamma=5.0), max_passes=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = train_multiclass(x, np.where(y > 0, "pos", "neg"), cfg)
        assert [str(w.message).split(":")[0] for w in caught] == ["machine 'pos' vs 'neg'"]
        assert [type(label) for label in model.labels] == [str] * 2

    def test_default_cap_stops_a_hard_problem_quickly(self):
        # heavily overlapping 2-D classes with copies under both labels: at
        # C = 1e7 the gap does not close, and the default cap must end it fast
        rng = np.random.default_rng(1)
        y = np.where(np.arange(120) % 2, 1.0, -1.0)
        x = rng.normal(0.5 * y[:, None], 1.0, (120, 2))
        copies = rng.choice(120, 30, replace=False)
        x, y = np.vstack([x, x[copies]]), np.concatenate([y, -y[copies]])
        cfg = SvmConfig(c=1e7, kernel=KernelConfig("rbf", gamma=0.5))
        gram = _gram(cfg.kernel, x, x)
        *_, gap, updates = _smo(gram, y, cfg)
        assert gap > cfg.tol
        assert updates == cfg.max_passes * len(y) == 15000
        with pytest.warns(RuntimeWarning, match=r"at the cap of 15000 pair updates \(max_passes 100\)$"):
            train_binary(x, y, cfg)
        # at C = 1 the same rows converge, well before the cap
        *_, gap, updates = _smo(gram, y, SvmConfig(c=1.0, kernel=cfg.kernel))
        assert gap <= cfg.tol
        assert 0 < updates < 15000


class TestMulticlass:
    def _blobs(self):
        rng = np.random.default_rng(1)
        points, labels = [], []
        for center, label in [((0, 0), "alpha"), ((8, 0), "beta"), ((0, 8), "gamma")]:
            for _ in range(4):
                points.append(np.asarray(center, dtype=float) + rng.normal(0, 0.3, 2))
                labels.append(label)
        return points, labels

    def test_two_labels_one_machine(self):
        cfg = SvmConfig(c=10.0, kernel=KernelConfig("linear"))
        model = train_multiclass([[0.0], [1.0]], ["no", "yes"], cfg)
        assert len(model.machines) == 1
        assert model.labels == ("no", "yes")

    def test_three_labels_three_machines(self):
        points, labels = self._blobs()
        cfg = SvmConfig(c=1e7, kernel=KernelConfig("linear"))
        model = train_multiclass(points, labels, cfg)
        assert len(model.machines) == 3

    def test_blobs_training_accuracy(self):
        points, labels = self._blobs()
        cfg = SvmConfig(c=1e7, kernel=KernelConfig("linear"))
        model = train_multiclass(points, labels, cfg)
        assert all(predict(model, p) == l for p, l in zip(points, labels))

    def test_binary_predict_is_sign(self):
        cfg = SvmConfig(c=1e7, kernel=KernelConfig("linear"))
        model = train_multiclass([[-1.0], [1.0]], ["neg", "pos"], cfg)
        assert predict(model, [2.0]) == "pos"
        assert predict(model, [-2.0]) == "neg"

    @pytest.mark.parametrize("n_labels", [3, 5], ids=["fewer-labels", "more-labels"])
    def test_rows_and_labels_must_line_up(self, n_labels):
        cfg = SvmConfig(c=10.0, kernel=KernelConfig("linear"))
        with pytest.raises(DimensionMismatch, match=f"^4 vectors but {n_labels} labels$"):
            train_multiclass([[0.0], [1.0], [2.0], [3.0]], ["no", "yes", "no", "yes", "no"][:n_labels], cfg)

    def test_single_label_rejected(self):
        cfg = SvmConfig(kernel=KernelConfig("linear"))
        with pytest.raises(SingleClassInput):
            train_multiclass([[0.0], [1.0]], ["same", "same"], cfg)

    def test_unanimous_vote(self):
        points, labels = self._blobs()
        cfg = SvmConfig(c=1e7, kernel=KernelConfig("linear"))
        model = train_multiclass(points, labels, cfg)
        # a point deep inside the alpha blob wins both its machines
        assert predict(model, [0.0, 0.0]) == "alpha"

    @staticmethod
    def _bias_only(biases):
        """Machines b/a, c/a, c/b with no support vectors: each value is its bias."""
        pool, _ = SupportVectorPool.of(np.zeros((0, 1)))
        none = np.zeros(0, dtype=np.int64)
        machines = tuple(BinaryModel(none, np.zeros(0), bias) for bias in biases)
        return MulticlassModel(labels=("a", "b", "c"), machines=machines, kernel=KernelConfig("linear"), pool=pool)

    def test_vote_cycle_breaks_lexicographically(self):
        # engineered 1-1-1 cycle with equal margins: a beats b, b beats
        # c, c beats a; margins all equal so the earliest label wins
        model = self._bias_only((-1.0, 1.0, -1.0))
        results = {predict(model, [0.0]) for _ in range(10)}
        assert results == {"a"}
        assert predict_batch(model, np.zeros((10, 1))) == ["a"] * 10

    def test_margin_breaks_vote_tie(self):
        model = self._bias_only((-1.0, 5.0, -1.0))
        assert predict(model, [0.0]) == "c"
        assert predict_batch(model, [[0.0], [1.0]]) == ["c", "c"]

    def test_one_label_model_votes_its_label(self):
        pool, _ = SupportVectorPool.of(np.zeros((0, 1)))
        model = MulticlassModel(labels=("a",), machines=(), kernel=KernelConfig("linear"), pool=pool)
        assert predict_batch(model, np.zeros((3, 1))) == ["a"] * 3
        assert predict_batch(model, []) == []

    def test_schema_mismatch_rejected(self):
        cfg = SvmConfig(c=10.0, kernel=KernelConfig("linear"))
        batch = FeatureBatch(SparseRows.from_dense(np.array([[0.0], [1.0]])), "task1-v1")
        model = train_multiclass(batch, ["no", "yes"], cfg)
        assert model.schema_id == "task1-v1"
        with pytest.raises(DimensionMismatch, match="schema"):
            predict_batch(model, FeatureBatch(SparseRows.from_dense(np.array([[1.0]])), "task2-v1"))
        with pytest.raises(DimensionMismatch, match="expects 1 dims"):
            predict_batch(model, FeatureBatch(SparseRows.from_dense(np.array([[1.0, 2.0]])), "task1-v1"))
        with pytest.raises(DimensionMismatch, match="expects 1 dims"):
            predict_batch(model, np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            predict_batch(model, [[0.0], [1.0, 2.0]])

    def test_rows_read_across_chunks(self):
        points, labels = self._blobs()
        model = train_multiclass(points, labels, SvmConfig(c=1e7, kernel=KernelConfig("rbf", gamma=0.1)))
        rows = np.random.default_rng(2).normal(4.0, 4.0, (300, 2))  # more than PREDICT_CHUNK_ROWS
        values = decision_values(model, rows)
        assert values.shape == (300, 3)
        for row, row_values, label in zip(rows, values, predict_batch(model, rows)):
            assert label == predict(model, row)
            single = [decision_value(m, row, model.kernel) for m in model.machines]
            np.testing.assert_allclose(row_values, single, rtol=0, atol=1e-9)

    def test_zero_row_batch(self):
        points, labels = self._blobs()
        model = train_multiclass(points, labels, SvmConfig(c=1e7, kernel=KernelConfig("linear")))
        assert predict_batch(model, []) == []
        assert decision_values(model, []).shape == (0, 3)


KERNELS = {
    "linear": KernelConfig("linear"),
    "poly": KernelConfig("poly", gamma=0.5, degree=3, coef0=1.0),
    "rbf": KernelConfig("rbf", gamma=2.0),
}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_labels=st.integers(2, 4), kind=st.sampled_from(KERNEL_KINDS))
@example(seed=172528, n_labels=3, kind="linear")  # machine 'l2' vs 'l1' needs 1,706 pair updates; 100 passes cap it at 1,200
def test_predict_batch_matches_per_row_reference(seed, n_labels, kind):
    """Labels equal and decision values within 1e-9 of the loop oracle,
    on models whose training rows repeat, under one label or another. The
    model trains with a cap of 1,000 passes: the test asks about prediction,
    not about the solver's cap, and some draws, such as the example, need
    more than the default 100 passes to converge."""
    rng = np.random.default_rng(seed)
    x = rng.random((16, 3))
    labels = [f"l{i % n_labels}" for i in rng.permutation(16)]
    copies = rng.choice(16, 6, replace=False)
    x = np.vstack([x, x[copies]])
    labels += [labels[i] for i in copies[:3]] + [f"l{rng.integers(n_labels)}" for _ in copies[3:]]
    model = train_multiclass(x, labels, SvmConfig(c=10.0, kernel=KERNELS[kind], max_passes=1000))
    assert len(np.unique(model.pool.to_dense(), axis=0)) == model.pool.rows
    probes = np.vstack([rng.random((8, 3)), x[copies]])
    values = decision_values(model, probes)
    for row, label, row_values in zip(probes, predict_batch(model, probes), values):
        expected_label, expected_values = ovo_reference(model, row)
        assert label == expected_label
        np.testing.assert_allclose(row_values, expected_values, rtol=0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KERNEL_KINDS), n_rows=st.integers(0, 300),
       n_pool=st.integers(1, 100))
def test_sparse_rows_give_the_dense_decision_values(seed, kind, n_rows, n_pool):
    """The decision values of rows held sparse equal, bit for bit, those of their dense
    matrix, and lie within ``decision_tolerance`` of the dense reference, which computes
    each chunk's kernel by a matrix product over the columns its rows use."""
    rng = np.random.default_rng(seed)
    dims = 300
    unused = rng.random(dims) < 0.5  # columns that no row of the batch uses

    def sparse(n, density):
        return rng.random((n, dims)) * (rng.random((n, dims)) < density)

    pool, _ = SupportVectorPool.of(sparse(n_pool, 0.3))
    model = _three_label_model(rng, pool, KERNELS[kind])
    rows = sparse(n_rows, 0.3) * ~unused
    batch = FeatureBatch(SparseRows.from_dense(rows), "task2-v1")
    assert batch.values.tobytes() == rows.tobytes()
    got = decision_values(model, batch)
    assert got.tobytes() == decision_values(model, batch.values).tobytes()
    reference = decision_values_reference(model, rows, PREDICT_CHUNK_ROWS)
    assert np.all(np.abs(got - reference) <= decision_tolerance(model, rows))


def _three_label_model(rng, pool, kernel):
    n_sv = min(12, pool.rows)
    machines = tuple(
        BinaryModel(rng.choice(pool.rows, n_sv, replace=False), rng.normal(size=n_sv), float(rng.normal()))
        for _ in range(3)  # the label pairs of a, b, c
    )
    return MulticlassModel(("a", "b", "c"), machines, kernel, pool)


def _terms_by_exponents(kernel, dims) -> int:
    """The monomials of a linear or poly kernel's map over ``dims`` columns,
    counted over exponent vectors: degree 1 for linear; for poly every degree up
    to ``degree``, or ``degree`` alone when coef0 is 0."""
    degree = 1 if kernel.kind == "linear" else kernel.degree
    full = kernel.kind == "poly" and kernel.coef0 != 0.0
    return sum(sum(e) == degree or (full and sum(e) < degree) for e in product(range(degree + 1), repeat=dims))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind_degree=st.sampled_from([("linear", 1), ("poly", 1), ("poly", 2), ("poly", 3)]),
       gamma=st.floats(0.01, 2.0), coef0=st.just(0.0) | st.floats(-2.0, 2.0), width=st.sampled_from(range(1, 7)),
       n_labels=st.sampled_from([2, 3, 4]), n_rows=st.sampled_from([0, 1, 9, 140]))
def test_weights_form_matches_the_pool_path(seed, kind_degree, gamma, coef0, width, n_labels, n_rows):
    """A linear or poly model over rows in [0, 1] takes the weights form exactly when
    its map has no more terms, counted over exponent vectors, than its pool stores
    entries; with an RBF kernel it keeps the pool. Then phi(x) . c∘phi(z) is the
    kernel, and the weights' decision values lie within 1e-12 (1 + S) of the pool
    path's, S the size of the numbers either form adds,
    sum_i |coef_i| (gamma x.sv_i + |coef0|)^degree + |bias|; the labels are the pool
    path's wherever every value of a row exceeds that bound."""
    rng = np.random.default_rng(seed)
    kind, degree = kind_degree
    kernel = KernelConfig("linear") if kind == "linear" else KernelConfig("poly", gamma, degree, coef0)
    # up to 168 entries: the 84 terms of degree 3 over 6 columns fit about half the time
    n_pool = int(rng.integers(1, 41))
    pool = _pool_of(rng.random((n_pool, width)) * (rng.random((n_pool, width)) < 0.7))
    labels = tuple(f"l{i}" for i in range(n_labels))
    machines = []
    for _ in combinations(labels, 2):
        n_sv = int(rng.integers(1, n_pool + 1))
        sv = rng.choice(n_pool, n_sv, replace=False)
        machines.append(BinaryModel(sv, rng.uniform(-1.0, 1.0, n_sv), float(rng.uniform(-1.0, 1.0))))
    model = MulticlassModel(labels, tuple(machines), kernel, pool)
    assert weights_form(replace(model, kernel=KernelConfig("rbf", gamma))) is None
    weights = weights_form(model)
    terms = _terms_by_exponents(kernel, width)
    if terms > len(pool.values):
        assert weights is None
        return
    assert isinstance(weights, WeightsModel) and weights.weights.shape == (len(machines), terms)

    rows = rng.random((n_rows, width)) * (rng.random((n_rows, width)) < 0.7)
    dots = rows @ pool.to_dense().T
    factors, coefs = _monomials(kernel, width)
    assert len(coefs) == terms
    mapped = _mapped(SparseRows.from_dense(rows), 0, n_rows, factors) @ (_mapped(pool, 0, n_pool, factors) * coefs).T
    offset, power = (0.0, 1) if kind == "linear" else (abs(coef0), degree)
    sizes = ((1.0 if kind == "linear" else gamma) * dots + offset) ** power
    assert np.all(np.abs(mapped - _gram(kernel, rows, pool.to_dense())) <= 1e-12 * (1 + sizes))

    scale = np.column_stack([sizes[:, m.sv_index] @ np.abs(m.dual_coefs) + abs(m.bias) for m in model.machines])
    tolerance = 1e-12 * (1 + scale)
    got, expected = decision_values(weights, rows), decision_values(model, rows)
    assert got.shape == expected.shape == (n_rows, len(machines))
    assert np.all(np.abs(got - expected) <= tolerance)
    clear = np.all(np.abs(expected) > tolerance, axis=1)
    assert np.array_equal(np.array(predict_batch(weights, rows), dtype=object)[clear],
                          np.array(predict_batch(model, rows), dtype=object)[clear])


@pytest.mark.parametrize("kernel, n_pool, weighed", [
    (KernelConfig("linear"), 1, True),  # 6 terms, 6 entries
    (KernelConfig("poly", 0.5, 2, 0.0), 3, False),  # 21 terms, 18 entries
    (KernelConfig("poly", 0.5, 2, 0.0), 4, True),  # 21 terms, 24 entries
    (KernelConfig("poly", 0.5, 2, 1.0), 4, False),  # 28 terms, 24 entries
    (KernelConfig("rbf", 0.5), 40, False),  # no finite map
])
def test_weights_form_is_picked_by_the_map_and_the_pool(kernel, n_pool, weighed):
    pool = _pool_of(np.full((n_pool, 6), 0.5))
    machine = BinaryModel(np.arange(n_pool), np.ones(n_pool), 0.0)
    assert isinstance(weights_form(MulticlassModel(("a", "b"), (machine,), kernel, pool)), WeightsModel) == weighed


@pytest.mark.parametrize("change, field", [
    (dict(weights=np.zeros((1, 34))), "weights"),
    (dict(weights=np.zeros((2, 35))), "weights"),
    (dict(biases=np.zeros(2)), "biases"),
    (dict(weights=np.full((1, 35), np.nan)), "weights"),
    (dict(biases=np.array([np.inf])), "biases"),
    (dict(kernel=KernelConfig("rbf")), "kernel"),
    (dict(dims=-1), "dims"),
    (dict(dims=10**18, kernel=KernelConfig("poly", 0.006, 10**18, 1.0)), "weights"),  # refused uncounted
    (dict(labels=("b", "a")), "labels"),
])
def test_weights_model_refuses_a_malformed_form(change, field):
    fields = dict(labels=("a", "b"), kernel=KernelConfig("poly", 0.006, 3, 0.0), dims=5,
                  weights=np.zeros((1, 35)), biases=np.zeros(1))
    WeightsModel(**fields)
    with pytest.raises(FieldError) as caught:
        WeightsModel(**{**fields, **change})
    assert caught.value.field == field


def _pool_of(matrix):
    """The pool of ``matrix``'s rows as they are, equal rows kept, so each column's count is the one drawn."""
    rows = SparseRows.from_dense(matrix)
    return SupportVectorPool(rows.dims, rows.indptr, rows.indices, rows.values)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kernel=_KERNELS, n_pool=st.sampled_from([1, 7, 8, 16, 17, 24, 40]),
       n_rows=st.sampled_from([0, 1, 2, 9, 140]))
def test_split_kernel_matches_the_dense_reference(seed, kernel, n_pool, n_rows):
    """Over a pool whose columns are stored by none, one, just under, exactly and just
    over PREDICT_DENSE_SHARE of its rows, or all of them, and rows that store only
    block columns, only list columns, both or nothing: the columns at the share are
    the block's; a FeatureBatch and its dense matrix give the same bits; the values
    lie within ``decision_tolerance`` of the dense reference; the labels are the
    loop oracle's wherever no value lies within that bound of 0; and the same rows
    with two entries of a row swapped out of column order are refused when they
    are made, so they never reach the kernel."""
    rng = np.random.default_rng(seed)
    dims = 48
    cut = max(PREDICT_DENSE_SHARE * n_pool, 1)
    counts = np.minimum(rng.choice([0, 1, math.ceil(cut) - 1, math.ceil(cut), math.ceil(cut) + 1, n_pool], dims),
                        n_pool)
    stored = np.zeros((n_pool, dims), dtype=bool)
    for column, count in enumerate(counts):
        stored[rng.choice(n_pool, count, replace=False), column] = True
    pool = _pool_of(np.where(stored, rng.normal(size=stored.shape), 0.0))
    block = counts >= cut
    assert np.array_equal(pool.columns.sizes, np.where(block, 0, counts))
    model = _three_label_model(rng, pool, kernel)

    kinds = rng.integers(0, 4, n_rows)  # block columns, list columns, both, nothing
    may_store = np.array([block, ~block, np.ones(dims, bool), np.zeros(dims, bool)])[kinds]
    rows = np.where(may_store & (rng.random((n_rows, dims)) < 0.5), rng.normal(size=(n_rows, dims)), 0.0)
    batch = FeatureBatch(SparseRows.from_dense(rows), "task2-v1")
    got = decision_values(model, batch)
    assert got.shape == (n_rows, 3)
    assert got.tobytes() == decision_values(model, rows).tobytes()
    tolerance = decision_tolerance(model, rows)
    reference = decision_values_reference(model, rows, PREDICT_CHUNK_ROWS)
    assert np.all(np.abs(got - reference) <= tolerance)
    labels = predict_batch(model, batch)
    for row, label, clear in zip(rows, labels, np.all(np.abs(got) > tolerance, axis=1)):
        if clear:
            assert label == ovo_reference(model, row)[0]
    stored = np.diff(batch.rows.indptr)
    if (stored >= 2).any():
        first = batch.rows.indptr[np.argmax(stored >= 2)]  # the first entry of the first row of two or more
        order = np.arange(len(batch.rows.indices))
        order[[first, first + 1]] = first + 1, first
        with pytest.raises(FieldError, match="^indices: columns must strictly increase within a row$"):
            replace(batch.rows, indices=batch.rows.indices[order], values=batch.rows.values[order])


@pytest.mark.parametrize("n_pool, n_listed, most", [(40, 600, 4), (16, 2500, 1)])
def test_chunks_expand_to_at_most_one_kernel_matrix_of_products(monkeypatch, n_pool, n_listed, most):
    """Rows that each store every list column of a wide pool are cut greedily into
    chunks whose list entries expand to at most PREDICT_CHUNK_ROWS * pool rows
    products, a row that alone expands to more being a chunk of its own, and their
    values lie within ``decision_tolerance`` of the dense reference."""
    rng = np.random.default_rng(n_listed)
    dims = n_listed + 3  # three block columns, stored by every pool row
    stored = np.zeros((n_pool, dims), dtype=bool)
    stored[:, n_listed:] = True
    for column in range(n_listed):
        stored[rng.choice(n_pool, rng.integers(1, most + 1), replace=False), column] = True
    pool = _pool_of(np.where(stored, rng.normal(size=stored.shape), 0.0))
    counts = stored.sum(axis=0)
    assert np.all((counts < PREDICT_DENSE_SHARE * n_pool) == (np.arange(dims) < n_listed))
    model = _three_label_model(rng, pool, KernelConfig("rbf", gamma=0.01))
    rows = rng.normal(size=(20, dims))
    chunks = []
    pool_kernel = svm_module._pool_kernel
    monkeypatch.setattr(svm_module, "_pool_kernel",
                        lambda cfg, r, start, stop, p: chunks.append((start, stop)) or pool_kernel(cfg, r, start, stop, p))
    got = decision_values(model, rows)
    products = np.full(len(rows), counts[:n_listed].sum())  # each row's list products
    budget = PREDICT_CHUNK_ROWS * n_pool
    assert [start for start, _ in chunks] == [0] + [stop for _, stop in chunks[:-1]] and chunks[-1][1] == len(rows)
    for start, stop in chunks:
        assert products[start:stop].sum() <= budget or stop - start == 1
        assert stop == len(rows) or products[start:stop + 1].sum() > budget  # the next row does not fit
    assert (products[0] > budget) == (n_listed == 2500)
    assert np.all(np.abs(got - decision_values_reference(model, rows, PREDICT_CHUNK_ROWS)) <= decision_tolerance(model, rows))
    # rows that store only block columns expand to no list products, so the budget cannot bind
    chunks.clear()
    block_only = np.zeros((2 * PREDICT_CHUNK_ROWS + 5, dims))
    block_only[:, n_listed:] = rng.normal(size=(len(block_only), 3))
    decision_values(model, block_only)
    assert chunks == [(start, min(start + PREDICT_CHUNK_ROWS, len(block_only)))
                      for start in range(0, len(block_only), PREDICT_CHUNK_ROWS)]


@st.composite
def tied_vote_models(draw):
    """A 1- to 5-label model whose machines read one support vector [1.0] under the
    linear kernel, each with a coefficient and a bias in {-1, 0, 1}, and rows in
    {-2, ..., 2}: every decision value is a small integer, so votes tie and tied
    labels win by equal margins, 0 included, often."""
    n_labels = draw(st.integers(1, 5))
    pool, _ = SupportVectorPool.of(np.ones((1, 1)))
    unit = st.sampled_from([-1.0, 0.0, 1.0])
    machines = tuple(
        BinaryModel(np.zeros(1, dtype=np.int64), np.array([draw(unit)]), draw(unit))
        for _ in combinations(range(n_labels), 2)
    )
    labels = tuple(f"l{i}" for i in range(n_labels))
    model = MulticlassModel(labels=labels, machines=machines, kernel=KernelConfig("linear"), pool=pool)
    return model, draw(st.lists(st.integers(-2, 2), min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(tied_vote_models())
def test_vote_ties_match_per_row_reference(model_and_rows):
    """The labels of ``predict_batch`` are the loop oracle's, where votes tie and
    the summed margins of the tied labels are equal too."""
    model, xs = model_and_rows
    rows = np.array(xs, dtype=np.float64)[:, None]
    assert predict_batch(model, rows) == [ovo_reference(model, row)[0] for row in rows]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_labels=st.integers(2, 3), kind=st.sampled_from(KERNEL_KINDS))
@example(seed=327, n_labels=3, kind="linear")  # machine 'l1' vs 'l0' needs 1,666 pair updates; 100 passes cap it at 1,400
def test_sparse_rows_match_per_row_reference(seed, n_labels, kind):
    """Decision values within 1e-9 of the loop oracle and equal labels on mostly-zero
    rows, whose kernel matrix skips the columns a chunk leaves zero: all-zero probes,
    a probe column no support vector uses, a support-vector column no probe uses, and
    more probes than one chunk holds, the last chunk on a subset of the columns. The
    model trains with a cap of 1,000 passes: the test asks about prediction, not
    about the solver's cap, and some draws, such as the example, need more than the
    default 100 passes to converge."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(8, 17))
    train_only, probe_only = 0, width - 1

    def sparse(n, density):
        return np.where(rng.random((n, width)) < density, rng.random((n, width)), 0.0)

    x = sparse(20, 0.25)
    x[:, train_only] = 1.0 + rng.random(20)  # every support vector uses it
    x[:, probe_only] = 0.0
    labels = [f"l{i % n_labels}" for i in rng.permutation(20)]
    model = train_multiclass(x, labels, SvmConfig(c=10.0, kernel=KERNELS[kind], max_passes=1000))
    probes = sparse(PREDICT_CHUNK_ROWS + 24, 0.15)
    probes[:, train_only] = 0.0
    probes[PREDICT_CHUNK_ROWS:, rng.random(width) < 0.5] = 0.0
    probes[rng.choice(len(probes), 12, replace=False)] = 0.0
    values = decision_values(model, probes)
    for row, label, row_values in zip(probes, predict_batch(model, probes), values):
        expected_label, expected_values = ovo_reference(model, row)
        assert label == expected_label
        np.testing.assert_allclose(row_values, expected_values, rtol=0, atol=1e-9)
        single = [decision_value(m, row, model.kernel) for m in model.machines]
        np.testing.assert_allclose(single, expected_values, rtol=0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 80),
    kind=st.sampled_from(KERNEL_KINDS),
    c=st.sampled_from([1.0, 1e3, 1e7]),
    max_passes=st.sampled_from([1, 2, 3, 100]),
)
def test_smo_matches_the_recomputing_reference(seed, n, kind, c, max_passes):
    """The in-place SMO gives the alphas, bias, gap and update count of the
    loop that recomputes its state every iteration, bit for bit, whether it
    stops at the cap or converges; some rows are copied under the other label."""
    rng = np.random.default_rng(seed)
    copies = rng.integers(0, n // 2 + 1)
    y = np.where(rng.random(n - copies) < 0.5, 1.0, -1.0)
    y[0] = 1.0
    y[1:2] = -1.0  # both labels among the rows, when there are two or more
    x = rng.normal(0.5 * y[:, None], 1.0, (len(y), int(rng.integers(1, 4))))
    copied = rng.choice(len(y), copies)
    x, y = np.vstack([x, x[copied]]), np.concatenate([y, -y[copied]])
    cfg = SvmConfig(c=c, kernel=KERNELS[kind], max_passes=max_passes)
    gram = _gram(cfg.kernel, x, x)
    alpha, bias, gap, updates = _smo(gram, y, cfg)
    expected_alpha, expected_bias, expected_gap, expected_updates = smo_reference(gram, y, cfg)
    assert np.array_equal(alpha, expected_alpha)
    assert bias == expected_bias
    assert gap == expected_gap
    assert updates == expected_updates
    assert updates <= cfg.max_passes * n
    assert (updates == cfg.max_passes * n) or gap <= cfg.tol


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    kind=st.sampled_from(KERNEL_KINDS),
    c=st.sampled_from([1.0, 1e7]),
    max_passes=st.sampled_from([1, 100]),
)
def test_smo_matches_the_reference_when_the_curvature_rows_spill(seed, n, kind, c, max_passes):
    """With no room for a curvature row, or room for one row only, every row
    that does not fit is computed for its update and dropped, and the solve
    still gives the reference's alphas, bias, gap and update count bit for bit."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[0], y[-1] = 1.0, -1.0
    x = rng.normal(0.5 * y[:, None], 1.0, (n, 2))
    x[n // 2:] = x[: n - n // 2]  # copies, some under the other label
    cfg = SvmConfig(c=c, kernel=KERNELS[kind], max_passes=max_passes)
    gram = _gram(cfg.kernel, x, x)
    expected = smo_reference(gram, y, cfg)
    for budget in (0, 8 * n):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(svm_module, "_ROW_CACHE_BYTES", budget)
            alpha, *rest = _smo(gram, y, cfg)
        assert np.array_equal(alpha, expected[0])
        assert tuple(rest) == expected[1:]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    kernel=_KERNELS,
    scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
    c=st.floats(1e-12, 1e8),
    tol=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    max_passes=st.integers(1, 3),
)
@example(seed=0, n=2, kernel=KernelConfig("linear"), scale=0.0, c=1e-12, tol=1.999, max_passes=1)
@example(seed=1, n=40, kernel=KernelConfig("rbf", gamma=2.0), scale=1e3, c=1e8, tol=1e-3, max_passes=1)
def test_every_valid_config_keeps_a_support_vector_of_each_label(seed, n, kernel, scale, c, tol, max_passes):
    """Any valid SvmConfig on any two-class problem keeps a nonzero alpha of each
    label. The KKT gap starts at 2 > tol, so SMO makes a first update, which moves
    one alpha of each label off 0; the dual objective then only falls, and
    alpha = 0 is where it started. Some rows are copied under the other label."""
    rng = np.random.default_rng(seed)
    copies = rng.integers(0, n // 2 + 1)
    y = np.where(rng.random(n - copies) < 0.5, 1.0, -1.0)
    y[0] = 1.0
    y[1:2] = -1.0
    x = scale * rng.normal(0.5 * y[:, None], 1.0, (len(y), int(rng.integers(1, 4))))
    copied = rng.choice(len(y), copies)
    x, y = np.vstack([x, x[copied]]), np.concatenate([y, -y[copied]])
    cfg = SvmConfig(c=c, kernel=kernel, tol=tol, max_passes=max_passes)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "machine .* at the cap of", RuntimeWarning)
        model = train_binary(x, y, cfg)
    assert (model.dual_coefs > 0).any() and (model.dual_coefs < 0).any()
    assert np.all(np.abs(model.dual_coefs) <= c)


def test_smo_matches_the_reference_on_task2_machines(synthetic_records, synthetic_lexicons, monkeypatch):
    """Each one-vs-one machine of a task-2 model trained at the default
    config (RBF gamma 0.005, C = 1e7) takes hundreds of pair updates and
    solves as the recomputing reference does, bit for bit."""
    solved = []

    def recording(gram, y, cfg):
        result = _smo(gram, y, cfg)
        solved.append((gram, y, cfg, result))
        return result

    monkeypatch.setattr(svm_module, "_smo", recording)
    config = PipelineConfig()
    train_task2(synthetic_records, [r.relevance for r in synthetic_records], synthetic_lexicons, config)
    assert len(solved) == 3  # support/oppose/neutral, one machine per pair
    for gram, y, cfg, (alpha, bias, gap, updates) in solved:
        assert cfg == config.task2
        expected_alpha, expected_bias, expected_gap, expected_updates = smo_reference(gram, y, cfg)
        assert np.array_equal(alpha, expected_alpha)
        assert (bias, gap, updates) == (expected_bias, expected_gap, expected_updates)
        assert 300 <= updates < cfg.max_passes * len(y) and gap <= cfg.tol


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_labels=st.integers(2, 4), kind=st.sampled_from(KERNEL_KINDS))
def test_multiclass_machines_match_binary_training(seed, n_labels, kind):
    """Each one-vs-one machine equals train_binary on its label pair: the same
    support-vector rows, coefficients and bias. The one pool holds each distinct
    support vector once, in order of first appearance, -0.0 stored as 0.0, and
    the rows pass through the intake once."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, (12, 3)) / 2.0  # few distinct values: rows repeat
    x = np.vstack([x, x[rng.choice(12, 6, replace=False)]])
    x[rng.integers(len(x)), rng.integers(3)] = -0.0
    labels = [f"l{i % n_labels}" for i in rng.permutation(len(x))]
    cfg = SvmConfig(c=1.0, kernel=KERNELS[kind])
    intake = svm_module._rows
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(svm_module, "_rows", lambda *args: calls.append(args) or intake(*args))
        model = train_multiclass(x, labels, cfg)
    assert len(calls) == 1
    names = np.array(labels)
    pool_rows: dict[bytes, np.ndarray] = {}
    for machine, (neg, pos) in zip(model.machines, combinations(sorted(set(labels)), 2), strict=True):
        pair = (names == pos) | (names == neg)
        alone = train_binary(x[pair], np.where(names[pair] == pos, 1, -1), cfg)
        assert machine.support_vectors.tobytes() == alone.support_vectors.tobytes()
        assert machine.dual_coefs.tobytes() == alone.dual_coefs.tobytes()
        assert machine.bias == alone.bias
        for row in alone.support_vectors:
            pool_rows.setdefault(row.tobytes(), row)
    assert model.pool.to_dense().tobytes(order="C") == np.array(list(pool_rows.values())).tobytes()


_INTAKE_CFG = SvmConfig(c=10.0, kernel=KernelConfig("rbf", gamma=0.5))

# each entry point that reads a batch of rows, called on ``rows`` with ``model`` at hand
_BATCH_ENTRY_POINTS = {
    "train_binary": lambda model, rows: train_binary(rows, [-1, 1], _INTAKE_CFG),
    "train_multiclass": lambda model, rows: train_multiclass(rows, ["a", "b"], _INTAKE_CFG),
    "decision_values": lambda model, rows: decision_values(model, rows),
    "predict_batch": lambda model, rows: predict_batch(model, rows),
}
# each entry point that reads one row
_ROW_ENTRY_POINTS = {
    "decision_value": lambda model, row: decision_value(model.machines[0], row, model.kernel),
    "predict": lambda model, row: predict(model, row),
}
_BATCH_FORMS = {
    "list": lambda rows: rows.tolist(),
    "array": lambda rows: rows,
    "FeatureBatch": lambda rows: FeatureBatch(SparseRows.from_dense(rows), "task1-v1"),
}


class TestIntake:
    """Every entry point reads its rows through the one intake: a row with NaN
    or infinity raises NonFinite there, before any kernel is computed and
    without a numpy warning."""

    @pytest.fixture(scope="class")
    def model(self):
        batch = FeatureBatch(SparseRows.from_dense(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])), "task1-v1")
        return train_multiclass(batch, ["a", "b", "c"], _INTAKE_CFG)

    @pytest.fixture
    def no_kernel(self, model, monkeypatch):  # takes model so that it is trained before the patch
        monkeypatch.setattr(svm_module, "_gram", lambda *args: pytest.fail("a kernel was computed"))

    @staticmethod
    def _raises_non_finite(call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="NaN or infinity"):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("form", _BATCH_FORMS)
    @pytest.mark.parametrize("entry", _BATCH_ENTRY_POINTS)
    def test_batch_entry_points(self, model, no_kernel, entry, form, bad):
        rows = _BATCH_FORMS[form](np.array([[0.0, 1.0], [1.0, bad]]))
        self._raises_non_finite(lambda: _BATCH_ENTRY_POINTS[entry](model, rows))

    def test_rows_of_three_dimensions_rejected(self, model):
        with pytest.raises(DimensionMismatch, match=r"rows must form a 2-D matrix, got shape \(1, 1, 2\)"):
            predict_batch(model, np.zeros((1, 1, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", _ROW_ENTRY_POINTS)
    def test_row_entry_points(self, model, no_kernel, entry, bad):
        for row in ([bad, 0.0], np.array([0.0, bad])):
            self._raises_non_finite(lambda: _ROW_ENTRY_POINTS[entry](model, row))


class TestPersistence:
    """A model's own JSON document, written by ``to_doc`` and read back by ``from_doc``."""

    def _model(self):
        rng = np.random.default_rng(4)
        x = np.vstack([rng.normal(-2, 1, (6, 3)), rng.normal(2, 1, (6, 3))])
        y = ["low"] * 6 + ["high"] * 6
        cfg = SvmConfig(c=100.0, kernel=KernelConfig("rbf", gamma=0.3))
        return train_multiclass(x, y, cfg)

    def test_roundtrip_predictions(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.json"
        _save(model, path)
        loaded = _load(path)
        rng = np.random.default_rng(6)
        for _ in range(100):
            point = rng.normal(size=3)
            assert predict(loaded, point) == predict(model, point)
            for machine, other in zip(model.machines, loaded.machines):
                assert decision_value(machine, point, model.kernel) == decision_value(
                    other, point, loaded.kernel
                )

    def test_truncated_file(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.json"
        _save(model, path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(CorruptModel):
            _load(path)

    def test_wrong_document(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(CorruptModel):
            _load(path)

    def test_retrain_same_seed_identical_files(self, tmp_path):
        paths = []
        for i in range(2):
            rng = np.random.default_rng(4)
            x = np.vstack([rng.normal(-2, 1, (6, 3)), rng.normal(2, 1, (6, 3))])
            y = ["low"] * 6 + ["high"] * 6
            cfg = SvmConfig(c=100.0, kernel=KernelConfig("rbf", gamma=0.3))
            model = train_multiclass(x, y, cfg)
            path = tmp_path / f"model{i}.json"
            _save(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
