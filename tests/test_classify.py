import itertools

import numpy as np
import pytest
from scipy.optimize import minimize

import scatfeat.classify
from scatfeat.classify import (PairMachine, Standardizer, SvmModel,
                               grid_search, kkt_residual, model_from_json,
                               model_to_json, rbf_kernel, smo_solve,
                               standardize_apply, standardize_fit,
                               svm_decision_values, svm_predict, svm_train)
from scatfeat.classify import (_STD_FLOOR, _SV_TRUNCATE, MAX_SMO_ITER,
                               SOLVER_TOL)
from scatfeat.errors import (DegenerateClassError, DimensionMismatchError,
                             InvalidSvmParamError, TooFewRowsError)


def blobs(rng, centers, n_per, sigma=0.1):
    xs, ys = [], []
    for label, center in centers:
        xs.append(rng.normal(0, sigma, (n_per, len(center))) + np.asarray(center))
        ys.extend([label] * n_per)
    return np.vstack(xs), np.array(ys)


def qp_reference(kernel, y, c):
    """Dual SVM solved by a generic constrained optimizer, SLSQP with
    bounds [0, c] and alpha . y = 0 (independent of the SMO path)."""
    q_mat = np.outer(y, y) * kernel
    sol = minimize(lambda a: 0.5 * a @ q_mat @ a - a.sum(), np.zeros(len(y)),
                   jac=lambda a: q_mat @ a - 1.0, method="SLSQP",
                   bounds=[(0.0, c)] * len(y),
                   constraints=[{"type": "eq", "fun": lambda a: a @ y,
                                 "jac": lambda a: y}],
                   options={"ftol": 1e-12, "maxiter": 1000})
    assert sol.success, sol.message
    return sol.x


def smo_reference(kernel, y, c, tol=SOLVER_TOL, max_iter=MAX_SMO_ITER):
    """smo_solve as a plain numpy loop that rebuilds the I_up / I_low masks
    from alpha on every pass; smo_solve must reproduce it bit for bit."""
    y = np.asarray(y, dtype=np.float64)
    alpha = np.zeros(y.size)
    v = y.copy()
    pos = y > 0
    for n_iter in range(max_iter + 1):
        vi = np.where(np.where(pos, alpha < c, alpha > 0.0), v, -np.inf)
        vj = np.where(np.where(pos, alpha > 0.0, alpha < c), v, np.inf)
        i = int(np.argmax(vi))
        j = int(np.argmin(vj))
        violation = vi[i] - vj[j]
        if violation <= tol or n_iter == max_iter:
            break
        quad = max(kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j], _STD_FLOOR)
        step = violation / quad
        limit_i = c - alpha[i] if pos[i] else alpha[i]
        limit_j = alpha[j] if pos[j] else c - alpha[j]
        step = min(step, limit_i, limit_j)
        alpha[i] = min(max(alpha[i] + (step if pos[i] else -step), 0.0), c)
        alpha[j] = min(max(alpha[j] - (step if pos[j] else -step), 0.0), c)
        v -= step * (kernel[i] - kernel[j])

    free = (alpha > _SV_TRUNCATE) & (alpha < c - _SV_TRUNCATE)
    if np.any(free):
        bias = float(np.mean(v[free]))
    else:
        bias = float((vi[i] + vj[j]) / 2.0)
    return alpha, bias, float(violation), bool(violation <= tol), n_iter


def random_dual(seed):
    """A seeded binary SVM dual: (kernel, y, c, max_iter). Seeds cycle
    through c in geomspace(0.01, 100, 9), caps of (default, 1, 7), and
    plain rows, duplicated rows with their labels, or all-+1 labels."""
    rng = np.random.default_rng([seed, 5])
    n = int(rng.integers(2, 40))
    x = rng.normal(0, 1, (n, int(rng.integers(1, 5))))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if seed % 4 == 1:
        x[n // 2: 2 * (n // 2)] = x[:n // 2]
        y[n // 2: 2 * (n // 2)] = y[:n // 2]
    elif seed % 4 == 2:
        y[:] = 1.0
    c = float(np.geomspace(0.01, 100.0, 9)[seed % 9])
    max_iter = (MAX_SMO_ITER, 1, 7)[seed % 3]
    return rbf_kernel(x, x, float(10.0 ** rng.uniform(-2, 1))), y, c, max_iter


def bits(result):
    """A solve's (alpha, bias, residual, converged, n_iter), bit for bit."""
    alpha, bias, residual, converged, n_iter = result
    return (alpha.dtype, alpha.tobytes(), bias.hex(), residual.hex(),
            type(converged), converged, type(n_iter), n_iter)


def vote_reference(model, decisions):
    """Row-by-row majority vote: most votes, then largest summed margin of
    won pairs, then class order."""
    labels = []
    for row in decisions:
        votes = dict.fromkeys(model.classes, 0)
        margins = dict.fromkeys(model.classes, 0.0)
        for m, d in zip(model.pairs, row):
            winner = m.class_a if d > 0 else m.class_b
            votes[winner] += 1
            margins[winner] += abs(d)
        labels.append(min(model.classes, key=lambda c: (
            -votes[c], -margins[c], model.classes.index(c))))
    return labels


def dual_objective(kernel, y, alpha):
    qa = (np.outer(y, y) * kernel) @ alpha
    return 0.5 * alpha @ qa - alpha.sum()


class TestStandardizer:
    def test_identical_rows_zero_output(self):
        x = np.tile([3.0, -1.0, 7.0], (5, 1))
        s = standardize_fit(x)
        assert np.all(standardize_apply(s, x) == 0.0)

    def test_fit_then_apply_is_zscore(self, rng):
        x = rng.normal(3.0, 2.0, (50, 4))
        z = standardize_apply(standardize_fit(x), x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_row_at_mean_maps_to_zero(self, rng):
        x = rng.normal(0, 1, (20, 3))
        s = standardize_fit(x)
        assert np.allclose(standardize_apply(s, x.mean(axis=0)), 0.0, atol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRowsError):
            standardize_fit(np.zeros((1, 3)))

    def test_dimension_mismatch(self, rng):
        s = standardize_fit(rng.normal(0, 1, (5, 3)))
        with pytest.raises(DimensionMismatchError):
            standardize_apply(s, np.zeros(4))


class TestSmoSolver:
    def test_matches_qp_reference(self, rng):
        for trial in range(3):
            x, y_lab = blobs(rng, [("a", (0.6, 0.0)), ("b", (-0.6, 0.0))], 15, 0.5)
            y = np.where(y_lab == "a", 1.0, -1.0)
            kernel = rbf_kernel(x, x, 0.7)
            alpha, bias, residual, converged, _ = smo_solve(kernel, y, c=5.0)
            assert converged and residual <= 1e-3
            ref = qp_reference(kernel, y, 5.0)
            obj_smo = dual_objective(kernel, y, alpha)
            obj_ref = dual_objective(kernel, y, ref)
            assert obj_smo <= obj_ref + 1e-3 * max(1.0, abs(obj_ref))

    def test_constraints_hold(self, rng):
        x, y_lab = blobs(rng, [("a", (1, 1)), ("b", (-1, -1))], 20, 0.6)
        y = np.where(y_lab == "a", 1.0, -1.0)
        alpha, *_ = smo_solve(rbf_kernel(x, x, 1.0), y, c=2.0)
        assert np.all(alpha >= 0.0) and np.all(alpha <= 2.0)
        assert abs(np.dot(alpha, y)) < 1e-6

    def test_deterministic(self, rng):
        x, y_lab = blobs(rng, [("a", (1, 0)), ("b", (-1, 0))], 12, 0.4)
        y = np.where(y_lab == "a", 1.0, -1.0)
        k = rbf_kernel(x, x, 1.0)
        a1 = smo_solve(k, y, 1.0)
        a2 = smo_solve(k, y, 1.0)
        assert np.array_equal(a1[0], a2[0]) and a1[1] == a2[1]

    def test_matches_reference_bit_for_bit(self):
        capped = 0
        for seed in range(360):
            kernel, y, c, max_iter = random_dual(seed)
            ref = smo_reference(kernel, y, c, max_iter=max_iter)
            assert bits(smo_solve(kernel, y, c, max_iter=max_iter)) == bits(ref), seed
            capped += not ref[3]
        assert capped >= 150  # most of the 240 solves capped at 1 or 7 stop early

    def test_cap_at_the_converging_update(self, rng):
        x, y_lab = blobs(rng, [("a", (1, 0)), ("b", (-1, 0))], 20, 0.6)
        y = np.where(y_lab == "a", 1.0, -1.0)
        kernel = rbf_kernel(x, x, 1.0)
        alpha, bias, residual, converged, n = smo_solve(kernel, y, c=2.0)
        assert converged and n > 1
        # the n-th update reaches tol: a cap of n must still report converged
        capped = smo_solve(kernel, y, c=2.0, max_iter=n)
        assert capped[3] is True and capped[4] == n
        assert np.array_equal(capped[0], alpha)
        assert (capped[1], capped[2]) == (bias, residual)
        alpha_short, _, residual_short, converged_short, n_short = smo_solve(
            kernel, y, c=2.0, max_iter=n - 1)
        assert converged_short is False and n_short == n - 1
        assert residual_short > SOLVER_TOL
        assert residual_short == pytest.approx(
            kkt_residual(kernel, y, alpha_short, 2.0), rel=1e-6, abs=1e-9)


class TestSvmTrain:
    def test_separable_blobs_perfect(self, rng):
        x, y = blobs(rng, [("pos", (3, 3)), ("neg", (-3, -3))], 20, 0.1)
        model = svm_train(x, y, c=1.0, gamma=0.5)
        assert np.all(svm_predict(model, x) == y)

    def test_xor_clusters(self, rng):
        centers = [("a", (0, 0)), ("b", (0, 1)), ("b", (1, 0)), ("a", (1, 1))]
        xs, ys = [], []
        for label, center in centers:
            xs.append(rng.normal(0, 0.1, (25, 2)) + np.asarray(center))
            ys.extend([label] * 25)
        x, y = np.vstack(xs), np.array(ys)
        model = svm_train(x, y, c=10.0, gamma=1.0)
        acc = np.mean(svm_predict(model, x) == y)
        assert acc >= 0.95

    def test_kkt_residual_recomputed(self, rng):
        x, y_lab = blobs(rng, [("a", (1, 1)), ("b", (-1, -1))], 25, 0.8)
        y = np.where(y_lab == "a", 1.0, -1.0)
        kernel = rbf_kernel(x, x, 0.5)
        alpha, bias, residual, converged, _ = smo_solve(kernel, y, c=3.0)
        assert kkt_residual(kernel, y, alpha, 3.0) == pytest.approx(residual)
        assert residual <= 1e-3

    def test_duplicated_points_same_decision(self, rng):
        x, y = blobs(rng, [("a", (1.5, 0)), ("b", (-1.5, 0))], 15, 0.5)
        m1 = svm_train(x, y, c=1.0, gamma=0.8)
        m2 = svm_train(np.vstack([x, x]), np.concatenate([y, y]), c=1.0, gamma=0.8)
        probe = np.array([[u, v] for u in np.linspace(-2, 2, 7)
                          for v in np.linspace(-2, 2, 7)])
        d1 = svm_decision_values(m1, probe)
        d2 = svm_decision_values(m2, probe)
        assert np.max(np.abs(d1 - d2)) < 1e-6

    def test_training_order_permutation(self, rng):
        x, y = blobs(rng, [("a", (1, 0.5)), ("b", (-1, -0.5))], 20, 0.6)
        perm = rng.permutation(len(y))
        m1 = svm_train(x, y, c=2.0, gamma=0.5)
        m2 = svm_train(x[perm], y[perm], c=2.0, gamma=0.5)
        probe = rng.normal(0, 1.5, (30, 2))
        assert np.max(np.abs(svm_decision_values(m1, probe) -
                             svm_decision_values(m2, probe))) < 1e-6

    def test_single_class_rejected(self, rng):
        x = rng.normal(0, 1, (10, 2))
        with pytest.raises(DegenerateClassError):
            svm_train(x, np.array(["only"] * 10), 1.0, 1.0)

    def test_dual_constraint_per_machine(self, rng):
        x, y = blobs(rng, [("a", (2, 0)), ("b", (-2, 0)), ("c", (0, 2))], 15, 0.3)
        model = svm_train(x, y, c=10.0, gamma=1.0)
        assert len(model.pairs) == 3
        for m in model.pairs:
            assert abs(m.alpha_y.sum()) < 1e-6
            assert m.kkt_residual <= 1e-3


class TestSvmParams:
    """C and gamma must be finite numbers > 0: at C = 0 every alpha stays
    0 and the bias is NaN, and a grid without a cell trains no model."""

    @pytest.mark.parametrize("c, gamma", [
        (0.0, 0.5), (-1.0, 0.5), (np.nan, 0.5), (np.inf, 0.5),
        (1.0, 0.0), (1.0, -0.5), (1.0, np.nan), (1.0, np.inf)])
    def test_svm_train_rejects(self, rng, c, gamma):
        x, y = blobs(rng, [("a", (1, 0)), ("b", (-1, 0))], 5)
        with pytest.raises(InvalidSvmParamError):
            svm_train(x, y, c, gamma)

    @pytest.mark.parametrize("c_values, gamma_values", [
        ([], [0.5]), ([1.0], []), ([1.0, 0.0], [0.5]), ([1.0], [0.5, np.nan]),
        ([1.0], [-1.0]), ([np.inf], [0.5])])
    def test_grid_search_rejects(self, rng, c_values, gamma_values):
        x, y = blobs(rng, [("a", (1, 0)), ("b", (-1, 0))], 5)
        with pytest.raises(InvalidSvmParamError):
            grid_search((x, y), (x, y), c_values, gamma_values)


class TestSvmPredict:
    def test_support_vector_deep_inside(self, rng):
        x, y = blobs(rng, [("a", (3, 3)), ("b", (-3, -3))], 15, 0.1)
        model = svm_train(x, y, c=1.0, gamma=0.5)
        assert svm_predict(model, np.array([3.0, 3.0])) == "a"
        assert svm_predict(model, np.array([-3.0, -3.0])) == "b"

    def test_two_class_prediction_is_sign(self, rng):
        x, y = blobs(rng, [("a", (1, 0)), ("b", (-1, 0))], 15, 0.4)
        model = svm_train(x, y, c=1.0, gamma=1.0)
        probe = rng.normal(0, 1.5, (40, 2))
        d = svm_decision_values(model, probe)[:, 0]
        pred = svm_predict(model, probe)
        assert np.all(pred == np.where(d > 0, "a", "b"))

    def test_tiny_gamma_smoke(self, rng):
        x, y = blobs(rng, [("a", (1, 0)), ("b", (-1, 0))], 10, 0.3)
        model = svm_train(x, y, c=1.0, gamma=1e-12)
        labels = svm_predict(model, rng.normal(0, 1, (5, 2)))
        assert set(labels) <= {"a", "b"}

    def test_dimension_mismatch(self, rng):
        x, y = blobs(rng, [("a", (1, 0)), ("b", (-1, 0))], 10, 0.3)
        model = svm_train(x, y, c=1.0, gamma=1.0)
        with pytest.raises(DimensionMismatchError):
            svm_predict(model, np.zeros(5))

    @staticmethod
    def constant_model(biases):
        """Three classes whose pair machines have no support vectors, so
        each decision is the pair's bias: (a, b), (a, c), (b, c)."""
        classes = ("a", "b", "c")
        pairs = tuple(PairMachine(classes[ia], classes[ib], np.empty((0, 2)),
                                  np.empty(0), bias, 0.0, True)
                      for (ia, ib), bias in zip([(0, 1), (0, 2), (1, 2)], biases))
        return SvmModel(classes, pairs, 1.0, 1.0,
                        Standardizer(np.zeros(2), np.ones(2)))

    @pytest.mark.parametrize("biases, expected", [
        ((1.0, -2.0, 3.0), "b"),   # cyclic votes: largest won margin
        ((1.0, -1.0, 1.0), "a"),   # votes and margins tie: class order
        ((-1.0, -1.0, -1.0), "c"),  # c wins both its pairs
        ((1.0, 1.0, -5.0), "a"),   # votes outrank a larger margin
    ])
    def test_vote_tie_break(self, rng, biases, expected):
        model = self.constant_model(biases)
        probe = rng.normal(0, 1, (4, 2))
        assert np.array_equal(svm_decision_values(model, probe),
                              np.tile(biases, (4, 1)))
        assert list(svm_predict(model, probe)) == [expected] * 4
        assert svm_predict(model, probe[0]) == expected

    def test_every_constant_vote_matches_reference(self):
        probe = np.zeros((1, 2))
        for biases in itertools.product([-2.0, -1.0, 0.0, 1.0, 2.0], repeat=3):
            model = self.constant_model(biases)
            assert list(svm_predict(model, probe)) == vote_reference(
                model, svm_decision_values(model, probe)), biases

    def test_trained_model_matches_reference(self, rng):
        centers = [(c, (2 * np.cos(k), 2 * np.sin(k))) for k, c in enumerate("abcd")]
        x, y = blobs(rng, centers, 8, 0.9)
        model = svm_train(x, y, c=1.0, gamma=0.5)
        probe = rng.normal(0, 2.0, (200, 2))
        assert list(svm_predict(model, probe)) == vote_reference(
            model, svm_decision_values(model, probe))


class TestGridSearch:
    def test_single_point(self, rng):
        x, y = blobs(rng, [("a", (2, 2)), ("b", (-2, -2))], 10, 0.2)
        result = grid_search((x, y), (x, y), [3.0], [0.5])
        assert (result.best_c, result.best_gamma, result.valid_uar) == (3.0, 0.5, 1.0)

    def test_perfect_point_found(self, rng):
        x, y = blobs(rng, [("a", (2, 2)), ("b", (-2, -2))], 12, 0.2)
        result = grid_search((x, y), (x, y), [0.001, 1.0], [1e-8, 0.5])
        assert result.valid_uar == 1.0

    def test_all_equal_returns_smallest(self, rng):
        x, y = blobs(rng, [("a", (3, 3)), ("b", (-3, -3))], 10, 0.1)
        result = grid_search((x, y), (x, y), [10.0, 0.1, 1.0], [2.0, 0.5])
        assert (result.best_c, result.best_gamma) == (0.1, 0.5)

    def test_training_distances_built_once(self, rng, monkeypatch):
        x, y = blobs(rng, [("a", (1, 0)), ("b", (-1, 0)), ("c", (0, 1))], 10, 0.6)
        xv, yv = blobs(rng, [("a", (1, 0)), ("b", (-1, 0)), ("c", (0, 1))], 4, 0.6)
        shapes = []
        sq_distances = scatfeat.classify.sq_distances

        def counting(a, b):
            shapes.append((len(a), len(b)))
            return sq_distances(a, b)

        monkeypatch.setattr(scatfeat.classify, "sq_distances", counting)
        grid_search((x, y), (xv, yv), [0.1, 10.0], [0.05, 2.0])
        # the first call is the training rows' distances, every later one
        # compares validation rows with a pair's support vectors
        assert shapes[0] == (30, 30)
        assert len(shapes) == 1 + 4 * 3
        assert all(a == 12 for a, _ in shapes[1:])

    def test_returns_the_winning_model(self, rng):
        x, y = blobs(rng, [("a", (1, 0)), ("b", (-1, 0)), ("c", (0, 1))], 10, 0.6)
        xv, yv = blobs(rng, [("a", (1, 0)), ("b", (-1, 0)), ("c", (0, 1))], 5, 0.6)
        result = grid_search((x, y), (xv, yv), [0.1, 10.0], [0.05, 2.0])
        retrained = svm_train(x, y, result.best_c, result.best_gamma)
        assert model_to_json(result.model) == model_to_json(retrained)


class TestSerialization:
    def test_roundtrip_exact(self, rng):
        x, y = blobs(rng, [("a", (1, 1)), ("b", (-1, -1)), ("c", (1, -1))], 8, 0.3)
        std = standardize_fit(x)
        model = svm_train(standardize_apply(std, x), y, 2.0, 0.7, standardizer=std)
        text = model_to_json(model)
        back = model_from_json(text)
        assert back.classes == model.classes
        assert back.gamma == model.gamma and back.c == model.c
        assert np.array_equal(back.standardizer.mean, model.standardizer.mean)
        for m1, m2 in zip(model.pairs, back.pairs):
            assert np.array_equal(m1.support_vectors, m2.support_vectors)
            assert np.array_equal(m1.alpha_y, m2.alpha_y)
            assert m1.bias == m2.bias
        probe = rng.normal(0, 1, (20, 2))
        assert np.array_equal(svm_predict(model, probe), svm_predict(back, probe))

    def test_predict_applies_stored_standardizer(self, rng):
        x, y = blobs(rng, [("a", (30, 30)), ("b", (-30, -30))], 10, 1.0)
        std = standardize_fit(x)
        model = svm_train(standardize_apply(std, x), y, 1.0, 0.5, standardizer=std)
        assert svm_predict(model, np.array([30.0, 30.0])) == "a"
