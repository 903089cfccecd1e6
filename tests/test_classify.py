import itertools
import json

import numpy as np
import pytest
from scipy.optimize import minimize

import scatfeat.classify
from scatfeat.classify import (Standardizer, SvmModel,
                               grid_search, model_from_json,
                               model_to_json, rbf_kernel, smo_solve,
                               standardize_apply, standardize_fit,
                               svm_decision_values, svm_predict, svm_train)
from scatfeat.classify import (_STD_FLOOR, _SV_TRUNCATE, MAX_SMO_ITER,
                               SOLVER_TOL)
from scatfeat.config import RunConfig
from scatfeat.errors import (DegenerateClassError, DimensionMismatchError,
                             InvalidSvmParamError, NonFiniteFeatureError,
                             ScatFeatError, TooFewRowsError)
from scatfeat.evaluation import confusion, uar

from testkit import kkt_residual


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


def smo_reference(kernel, y, c, tol=SOLVER_TOL, max_iter=MAX_SMO_ITER, masks=None):
    """smo_solve as a plain numpy loop that rebuilds the I_up / I_low masks
    from alpha on every pass; smo_solve must reproduce it bit for bit. A
    list passed as masks receives each pass's (I_up, I_low) boolean masks.

    bound_free comes from the loop's own quantities: no step was cut by an
    upper limit c - alpha, and the largest alpha of any pass is below
    c - 1e-12."""
    y = np.asarray(y, dtype=np.float64)
    alpha = np.zeros(y.size)
    v = y.copy()
    pos = y > 0
    upper_cut, peak = False, 0.0
    for n_iter in range(max_iter + 1):
        up = np.where(pos, alpha < c, alpha > 0.0)
        low = np.where(pos, alpha > 0.0, alpha < c)
        if masks is not None:
            masks.append((up, low))
        vi = np.where(up, v, -np.inf)
        vj = np.where(low, v, np.inf)
        i = int(np.argmax(vi))
        j = int(np.argmin(vj))
        violation = vi[i] - vj[j]
        if violation <= tol or n_iter == max_iter:
            break
        quad = max(kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j], _STD_FLOOR)
        step = violation / quad
        limit_i = c - alpha[i] if pos[i] else alpha[i]
        limit_j = alpha[j] if pos[j] else c - alpha[j]
        upper_cut |= ((pos[i] and limit_i < step) or
                      (not pos[j] and limit_j < min(step, limit_i)))
        step = min(step, limit_i, limit_j)
        alpha[i] = min(max(alpha[i] + (step if pos[i] else -step), 0.0), c)
        alpha[j] = min(max(alpha[j] - (step if pos[j] else -step), 0.0), c)
        v -= step * (kernel[i] - kernel[j])
        peak = max(peak, alpha.max())

    free = (alpha > _SV_TRUNCATE) & (alpha < c - _SV_TRUNCATE)
    if np.any(free):
        bias = float(np.mean(v[free]))
    else:
        bias = float((vi[i] + vj[j]) / 2.0)
    bound_free = bool(not upper_cut and peak < c - _SV_TRUNCATE)
    return alpha, bias, float(violation), bool(violation <= tol), n_iter, bound_free


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


def emodb_sized_dual(seed):
    """A binary dual the size of one class pair of an EmoDB-shaped LOSO
    fold: (kernel, y, c). 100 to 180 rows of 392 dims in two overlapping
    classes; seeds cycle through the default C grid, then through the
    default gamma scales, divided by the dimension."""
    rng = np.random.default_rng([seed, 392])
    n = int(rng.integers(100, 181))
    y = rng.permutation(np.where(np.arange(n) < rng.integers(n // 3, 2 * n // 3),
                                 1.0, -1.0))
    x = rng.normal(0, 1, (n, 392)) + 0.15 * y[:, None]
    gamma = RunConfig.svm_gamma_scale[seed // 4 % 3] / 392
    return rbf_kernel(x, x, gamma), y, RunConfig.svm_c[seed % 4]


def leaves_and_returns(history):
    """Whether some index leaves a set and later enters it again, given
    the set's (passes, n) boolean membership masks."""
    steps = np.diff(np.asarray(history, dtype=np.int8), axis=0)
    return bool(np.any(np.logical_or.accumulate(steps == -1, axis=0) & (steps == 1)))


def bits(result):
    """A solve's (alpha, bias, residual, converged, n_iter, bound_free), bit
    for bit."""
    alpha, bias, residual, converged, n_iter, bound_free = result
    return (alpha.dtype, alpha.tobytes(), bias.hex(), residual.hex(),
            type(converged), converged, type(n_iter), n_iter,
            type(bound_free), bound_free)


def vote_reference(model, decisions):
    """Row-by-row majority vote: most votes, then largest summed margin of
    won pairs, then class order."""
    labels = []
    for row in decisions:
        votes = dict.fromkeys(model.classes, 0)
        margins = dict.fromkeys(model.classes, 0.0)
        for (class_a, class_b), d in zip(itertools.combinations(model.classes, 2), row):
            winner = class_a if d > 0 else class_b
            votes[winner] += 1
            margins[winner] += abs(d)
        labels.append(min(model.classes, key=lambda c: (
            -votes[c], -margins[c], model.classes.index(c))))
    return labels


def reference_decision_values(model, x):
    """One kernel per class pair, over that pair's own support vectors (the
    rows where its coef column is non-zero): the per-pair machines that one
    support-vector matrix replaced."""
    xs = standardize_apply(model.standardizer, np.atleast_2d(x))
    out = np.empty((xs.shape[0], model.coef.shape[1]))
    for p in range(model.coef.shape[1]):
        used = model.coef[:, p] != 0.0
        out[:, p] = (rbf_kernel(xs, model.support_vectors[used], model.gamma)
                     @ model.coef[used, p] + model.bias[p])
    return out


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
            alpha, bias, residual, converged, *_ = smo_solve(kernel, y, c=5.0)
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
        """Labels of one sign (every fourth seed) have no bias to solve for."""
        capped = 0
        for seed in range(360):
            kernel, y, c, max_iter = random_dual(seed)
            if np.all(y == y[0]):
                with pytest.raises(DegenerateClassError):
                    smo_solve(kernel, y, c, max_iter=max_iter)
                continue
            ref = smo_reference(kernel, y, c, max_iter=max_iter)
            assert bits(smo_solve(kernel, y, c, max_iter=max_iter)) == bits(ref), seed
            capped += not ref[3]
        assert capped >= 150  # most of the 240 solves capped at 1 or 7 stop early

    def test_matches_reference_on_emodb_sized_duals(self):
        """Every cell of the default grid at EmoDB-pair size, with indices
        that leave I_up or I_low and come back."""
        returns = 0
        for seed in range(12):
            kernel, y, c = emodb_sized_dual(seed)
            masks = []
            ref = smo_reference(kernel, y, c, masks=masks)
            assert ref[3] and bits(smo_solve(kernel, y, c)) == bits(ref), seed
            up, low = zip(*masks)
            returns += leaves_and_returns(up) or leaves_and_returns(low)
        assert returns >= 1

    def test_bound_free_solve_is_the_solve_at_every_larger_c(self):
        """A solve that never reached C returns the same bits, and the same
        recomputed KKT residual, at every larger C of the default grid."""
        reused = 0
        for seed in range(24):
            kernel, y, c = emodb_sized_dual(seed)
            solve = smo_solve(kernel, y, c)
            if not solve[5]:
                continue
            for larger in (v for v in RunConfig.svm_c if v > c):
                assert bits(smo_solve(kernel, y, larger)) == bits(solve), (seed, larger)
                assert (kkt_residual(kernel, y, solve[0], larger) ==
                        kkt_residual(kernel, y, solve[0], c))
                reused += 1
        assert reused >= 6

    def test_alpha_that_touches_c_and_leaves_is_not_bound_free(self):
        """Some alpha equals C on a pass and every alpha ends below
        C - 1e-12: the membership tests differed from a larger C's, and so
        do the bits."""
        x, y, c = np.array([[0.0], [1.0], [-2.0]]), np.array([1.0, -1.0, -1.0]), 2.0
        kernel = rbf_kernel(x, x, 1.0)
        masks = []
        ref = smo_reference(kernel, y, c, masks=masks)
        up, low = (np.array(m) for m in zip(*masks))
        assert np.any(np.where(y > 0, ~up, ~low))  # some alpha == c on a pass
        assert np.all(ref[0] < c - _SV_TRUNCATE)
        solve = smo_solve(kernel, y, c)
        assert bits(solve) == bits(ref) and solve[5] is False
        assert bits(smo_solve(kernel, y, 2.0 * c)) != bits(solve)

    def test_step_cut_at_an_upper_limit_is_not_bound_free(self):
        """No alpha equals C on any pass and all end far below it, but a
        step was cut at an upper limit c - alpha on the way, so smo_solve,
        like smo_reference, does not report the solve as reusable."""
        x = np.random.default_rng([68, 11]).normal(0, 1, (6, 2))
        y = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
        kernel, c = rbf_kernel(x, x, 0.2), 20.0
        masks = []
        ref = smo_reference(kernel, y, c, masks=masks)
        up, low = (np.array(m) for m in zip(*masks))
        assert not np.any(np.where(y > 0, ~up, ~low)) and ref[0].max() < c - 1.0
        assert ref[5] is False and bits(smo_solve(kernel, y, c)) == bits(ref)

    def test_bound_free_at_c_stays_bound_free_above(self):
        kernel = rbf_kernel(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), 1.0)
        y = np.array([1.0, -1.0])
        # the unbounded optimum is alpha = 1 / (1 - k(0, 1)) = 1.58 on both rows
        assert smo_solve(kernel, y, 1.5)[0].tolist() == [1.5, 1.5]
        assert not smo_solve(kernel, y, 1.5)[5]
        assert smo_solve(kernel, y, 1.6)[5]
        assert bits(smo_solve(kernel, y, 1.6)) == bits(smo_solve(kernel, y, 1e6))

    @pytest.mark.parametrize("y", [np.ones(3), -np.ones(3), np.ones(1)])
    def test_labels_of_one_sign_rejected(self, y):
        with pytest.raises(DegenerateClassError):
            smo_solve(np.eye(len(y)), y, 1.0)

    def test_leaves_and_returns(self):
        assert leaves_and_returns([[True, False], [False, False], [True, True]])
        assert not leaves_and_returns([[False, True], [True, True], [True, False]])

    @pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_c_outside_open_interval(self, c):
        kernel = rbf_kernel(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), 1.0)
        with pytest.raises(InvalidSvmParamError, match="SVM C"):
            smo_solve(kernel, np.array([1.0, -1.0]), c)

    def test_cap_at_the_converging_update(self, rng):
        x, y_lab = blobs(rng, [("a", (1, 0)), ("b", (-1, 0))], 20, 0.6)
        y = np.where(y_lab == "a", 1.0, -1.0)
        kernel = rbf_kernel(x, x, 1.0)
        alpha, bias, residual, converged, n, _ = smo_solve(kernel, y, c=2.0)
        assert converged and n > 1
        # the n-th update reaches tol: a cap of n must still report converged
        capped = smo_solve(kernel, y, c=2.0, max_iter=n)
        assert capped[3] is True and capped[4] == n
        assert np.array_equal(capped[0], alpha)
        assert (capped[1], capped[2]) == (bias, residual)
        alpha_short, _, residual_short, converged_short, n_short, _ = smo_solve(
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
        alpha, bias, residual, converged, *_ = smo_solve(kernel, y, c=3.0)
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
        assert model.coef.shape == (len(model.support_vectors), 3)
        assert np.all(np.abs(model.coef.sum(axis=0)) < 1e-6)
        assert model.bias.shape == model.kkt_residual.shape == (3,)
        assert np.all(model.kkt_residual <= 1e-3) and np.all(model.converged)

    def test_one_support_vector_matrix(self, rng):
        """Each training row is stored once, and only if some pair uses it;
        a pair's column is non-zero only on rows of its two classes, with
        positive coefficients on its first class."""
        x, y = blobs(rng, [("a", (1, 0)), ("b", (-1, 0)), ("c", (0, 1)),
                           ("d", (0, -1))], 12, 0.6)
        model = svm_train(x, y, c=1.0, gamma=0.5)
        sv_rows = [int(np.flatnonzero((x == sv).all(axis=1))[0])
                   for sv in model.support_vectors]
        assert sv_rows == sorted(set(sv_rows))
        assert np.all(model.coef.any(axis=1))
        labels = y[sv_rows]
        for p, (a, b) in enumerate(itertools.combinations(model.classes, 2)):
            col = model.coef[:, p]
            assert np.all(col[(labels != a) & (labels != b)] == 0.0)
            assert np.all(col[labels == a] >= 0.0)
            assert np.all(col[labels == b] <= 0.0)

    @pytest.mark.parametrize("n_classes, c, gamma", [
        (2, 1.0, 0.5), (3, 10.0, 1.0), (5, 0.3, 2.0), (7, 100.0, 0.05)])
    def test_matches_per_pair_reference(self, rng, n_classes, c, gamma):
        centers = [(f"k{k}", (np.cos(k), np.sin(k), 0.3 * k)) for k in range(n_classes)]
        x, y = blobs(rng, centers, 9, 0.7)
        std = standardize_fit(x)
        model = svm_train(standardize_apply(std, x), y, c, gamma, standardizer=std)
        probe = rng.normal(0, 1.5, (40, 3)) + x.mean(axis=0)
        got = svm_decision_values(model, probe)
        ref = reference_decision_values(model, probe)
        scale = np.abs(ref).max(axis=0)
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)


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


class TestNonFiniteFeatures:
    """A NaN or infinite feature is a NonFiniteFeatureError that names its
    row, not a NaN bias or a UAR computed from NaN decision values."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_svm_train(self, rng, bad):
        x, y = blobs(rng, [("a", (1, 0)), ("b", (-1, 0))], 5)
        x[3, 1] = bad
        with pytest.raises(NonFiniteFeatureError, match="training row 3"):
            svm_train(x, y, 1.0, 0.5)

    @pytest.mark.parametrize("which", ["training", "validation"])
    def test_grid_search(self, rng, which):
        x, y = blobs(rng, [("a", (1, 0)), ("b", (-1, 0))], 5)
        xv = x.copy()
        (x if which == "training" else xv)[7] = np.nan
        with pytest.raises(NonFiniteFeatureError, match=f"{which} row 7"):
            grid_search((x, y), (xv, y), [1.0], [0.5])

    def test_svm_predict(self, rng):
        x, y = blobs(rng, [("a", (1, 0)), ("b", (-1, 0))], 5)
        model = svm_train(x, y, 1.0, 0.5)
        with pytest.raises(NonFiniteFeatureError, match="row 0"):
            svm_predict(model, np.array([np.nan, 0.0]))
        x[2, 0] = np.inf
        with pytest.raises(NonFiniteFeatureError, match="row 2"):
            svm_predict(model, x)


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
        """Three classes and no support vectors, so each decision is the
        pair's bias: (a, b), (a, c), (b, c)."""
        return SvmModel(("a", "b", "c"), np.empty((0, 2)), np.empty((0, 3)),
                        np.array(biases, dtype=float), np.zeros(3),
                        np.ones(3, dtype=bool), 1.0, 1.0,
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

    @staticmethod
    def seven_class_model(decisions):
        """Seven classes a-g and no support vectors: each of the 21 pair
        decisions is the pair's bias."""
        return SvmModel(tuple("abcdefg"), np.empty((0, 2)), np.empty((0, 21)),
                        np.array(decisions, dtype=float), np.zeros(21),
                        np.ones(21, dtype=bool), 1.0, 1.0,
                        Standardizer(np.zeros(2), np.ones(2)))

    def test_random_seven_class_votes_match_reference(self, rng):
        # the integer rows tie on votes and on margins often; 0 votes the
        # pair's second class with a margin of 0
        rows = np.vstack([rng.normal(0, 1, (150, 21)),
                          rng.integers(-2, 3, (150, 21)).astype(float)])
        probe = np.zeros(2)
        for row in rows:
            model = self.seven_class_model(row)
            assert svm_predict(model, probe) == vote_reference(model, [row])[0], row

    def test_margins_summed_in_pair_order(self):
        """Every class wins 3 of the 21 pairs (class i beats i + 1, i + 2
        and i + 3 mod 7). b wins (b, c), (b, d), (b, e) by 0.1, 0.2, 0.3 and
        a wins (a, b), (a, c), (a, d) by 0.3, 0.2, 0.1; every other won
        margin is 0.01. Summed in pair order, b's margin is 0.1 + 0.2 + 0.3
        > 0.6 == 0.3 + 0.2 + 0.1, a's; summed in any one other order that
        swaps them, the class order would pick a."""
        assert 0.1 + 0.2 + 0.3 > 0.3 + 0.2 + 0.1 == 0.6
        margins = {(1, 2): 0.1, (1, 3): 0.2, (1, 4): 0.3,
                   (0, 1): 0.3, (0, 2): 0.2, (0, 3): 0.1}
        row = [margins.get((i, j), 0.01) * (1.0 if j - i <= 3 else -1.0)
               for i, j in itertools.combinations(range(7), 2)]
        model = self.seven_class_model(row)
        assert svm_predict(model, np.zeros(2)) == "b"
        assert vote_reference(model, [row]) == ["b"]


class TestGridSearch:
    def test_single_point(self, rng):
        x, y = blobs(rng, [("a", (2, 2)), ("b", (-2, -2))], 10, 0.2)
        result = grid_search((x, y), (x, y), [3.0], [0.5])
        assert (result.model.c, result.model.gamma, result.valid_uar) == (3.0, 0.5, 1.0)

    def test_perfect_point_found(self, rng):
        x, y = blobs(rng, [("a", (2, 2)), ("b", (-2, -2))], 12, 0.2)
        result = grid_search((x, y), (x, y), [0.001, 1.0], [1e-8, 0.5])
        assert result.valid_uar == 1.0

    def test_all_equal_returns_smallest(self, rng):
        x, y = blobs(rng, [("a", (3, 3)), ("b", (-3, -3))], 10, 0.1)
        result = grid_search((x, y), (x, y), [10.0, 0.1, 1.0], [2.0, 0.5])
        assert (result.model.c, result.model.gamma) == (0.1, 0.5)

    def test_training_distances_built_once(self, rng, monkeypatch):
        centers = [("a", (1.5, 0)), ("b", (-1.5, 0)), ("c", (0, 1.5))]
        x, y = blobs(rng, centers, 10, 0.6)
        xv, yv = blobs(rng, centers, 4, 0.6)
        shapes, n_svs, solves = [], [], []
        sq_distances = scatfeat.classify.sq_distances
        train_on_kernel = scatfeat.classify._train_on_kernel
        smo_solve_ = scatfeat.classify.smo_solve

        def counting(a, b):
            shapes.append((len(a), len(b)))
            return sq_distances(a, b)

        def recording(*args, **kwargs):
            model = train_on_kernel(*args, **kwargs)
            n_svs.append(len(model.support_vectors))
            return model

        def solving(kernel, ys, c):
            solve = smo_solve_(kernel, ys, c)
            solves.append((c, solve[5]))
            return solve

        monkeypatch.setattr(scatfeat.classify, "sq_distances", counting)
        monkeypatch.setattr(scatfeat.classify, "_train_on_kernel", recording)
        monkeypatch.setattr(scatfeat.classify, "smo_solve", solving)
        grid_search((x, y), (xv, yv), [1.0, 10.0, 100.0], [0.05, 2.0])
        # the first call is the training rows' distances, then each trained
        # cell compares the validation rows with its model's support vectors
        assert shapes == [(30, 30)] + [(12, n) for n in n_svs]
        # C = 1 solves both gammas' 3 pairs. At C = 10 every pair of
        # gamma = 2 is bound-free and none of gamma = 0.05, so C = 100
        # trains gamma = 0.05 alone: 5 of the 6 cells, 15 solves.
        assert [free for c, free in solves if c == 10.0] == [False] * 3 + [True] * 3
        assert [c for c, _ in solves] == [1.0] * 6 + [10.0] * 6 + [100.0] * 3
        assert len(n_svs) == 5

    @pytest.mark.parametrize("centers, sigma, c_values, gamma_values", [
        ([("a", (1, 0)), ("b", (-1, 0)), ("c", (0, 1))], 0.6,
         [0.1, 1.0, 10.0, 100.0], [0.05, 0.5, 2.0]),
        ([("a", (2, 0)), ("b", (-2, 0)), ("c", (0, 2)), ("d", (0, -2))], 0.8,
         [0.3, 3.0, 30.0], [0.1, 1.0]),
        ([("a", (0.3, 0)), ("b", (-0.3, 0))], 1.0, [0.1, 1.0, 10.0, 100.0], [0.5, 5.0]),
    ])
    def test_matches_a_per_cell_svm_train_loop(self, rng, monkeypatch, centers,
                                              sigma, c_values, gamma_values):
        """Reused solves and skipped cells change nothing: the winner, its
        UAR and its model's arrays are those of training every cell."""
        x, y = blobs(rng, centers, 12, sigma)
        xv, yv = blobs(rng, centers, 5, sigma)
        classes = sorted(set(y))
        best = None
        for c in c_values:
            for gamma in gamma_values:
                model = svm_train(x, y, c, gamma)
                score = uar(confusion(list(yv), list(svm_predict(model, xv)), classes))
                if best is None or score > best[2]:
                    best = (c, gamma, score, model)
        calls = []
        solve = scatfeat.classify.smo_solve
        monkeypatch.setattr(scatfeat.classify, "smo_solve",
                            lambda *args: calls.append(args[2]) or solve(*args))
        result = grid_search((x, y), (xv, yv), c_values, gamma_values)
        n_pairs = len(classes) * (len(classes) - 1) // 2
        assert len(calls) < len(c_values) * len(gamma_values) * n_pairs  # some reuse
        assert (result.model.c, result.model.gamma, result.valid_uar) == best[:3]
        assert model_to_json(result.model) == model_to_json(best[3])

    def test_returns_the_winning_model(self, rng):
        x, y = blobs(rng, [("a", (1, 0)), ("b", (-1, 0)), ("c", (0, 1))], 10, 0.6)
        xv, yv = blobs(rng, [("a", (1, 0)), ("b", (-1, 0)), ("c", (0, 1))], 5, 0.6)
        result = grid_search((x, y), (xv, yv), [0.1, 10.0], [0.05, 2.0])
        retrained = svm_train(x, y, result.model.c, result.model.gamma)
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
        assert np.array_equal(back.standardizer.std, model.standardizer.std)
        for field in ("support_vectors", "coef", "bias", "kkt_residual", "converged"):
            assert np.array_equal(getattr(back, field), getattr(model, field)), field
            assert getattr(back, field).dtype == getattr(model, field).dtype, field
        assert model_to_json(back) == text
        probe = rng.normal(0, 1, (20, 2))
        assert np.array_equal(svm_predict(model, probe), svm_predict(back, probe))

    def test_predict_applies_stored_standardizer(self, rng):
        x, y = blobs(rng, [("a", (30, 30)), ("b", (-30, -30))], 10, 1.0)
        std = standardize_fit(x)
        model = svm_train(standardize_apply(std, x), y, 1.0, 0.5, standardizer=std)
        assert svm_predict(model, np.array([30.0, 30.0])) == "a"

    def test_roundtrip_without_support_vectors(self):
        model = TestSvmPredict.constant_model((1.0, -2.0, 3.0))
        back = model_from_json(model_to_json(model))
        assert back.support_vectors.shape == (0, 2) and back.coef.shape == (0, 3)
        assert model_to_json(back) == model_to_json(model)


class TestModelFromJsonRejects:
    """A model document that lacks a key, or whose arrays disagree in shape
    with each other or with the standardizer, is a ScatFeatError that names
    the key."""

    @staticmethod
    def doc(rng):
        x, y = blobs(rng, [("a", (1, 1)), ("b", (-1, -1)), ("c", (1, -1))], 6, 0.4)
        std = standardize_fit(x)
        model = svm_train(standardize_apply(std, x), y, 1.0, 0.5, standardizer=std)
        return json.loads(model_to_json(model))

    @pytest.mark.parametrize("key", ["classes", "gamma", "c", "standardizer",
                                     "support_vectors", "coef", "bias",
                                     "kkt_residual", "converged"])
    def test_missing_key(self, rng, key):
        doc = self.doc(rng)
        del doc[key]
        with pytest.raises(ScatFeatError, match=key):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["mean", "std"])
    def test_missing_standardizer_key(self, rng, key):
        doc = self.doc(rng)
        del doc["standardizer"][key]
        with pytest.raises(ScatFeatError, match=key):
            model_from_json(json.dumps(doc))

    def test_per_pair_layout(self, rng):
        """The retired layout: one machine per pair, each with its own
        support vectors, and no shared matrix."""
        doc = self.doc(rng)
        doc["pairs"] = [{"class_a": "a", "class_b": "b", "sv": doc["support_vectors"],
                         "alpha_y": [row[0] for row in doc["coef"]],
                         "bias": doc["bias"][0], "kkt_residual": 0.0,
                         "converged": True}]
        for key in ("support_vectors", "coef", "bias", "kkt_residual", "converged"):
            del doc[key]
        with pytest.raises(ScatFeatError, match="support_vectors"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(gamma="x"), lambda d: d.update(c=[1.0]),
        lambda d: d.update(classes=None), lambda d: d.update(standardizer=[])])
    def test_wrong_value_type(self, rng, edit):
        doc = self.doc(rng)
        edit(doc)
        with pytest.raises(ScatFeatError):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[]", "not json", '"model"'])
    def test_not_a_model_document(self, text):
        with pytest.raises(ScatFeatError):
            model_from_json(text)

    @pytest.mark.parametrize("key, edit", [
        ("std", lambda d: d["standardizer"]["std"].pop()),
        ("support_vectors", lambda d: d["support_vectors"][0].pop()),
        ("support_vectors", lambda d: d.update(support_vectors=[1.0, 2.0])),
        ("coef", lambda d: d["support_vectors"].pop()),
        ("coef", lambda d: d["coef"][0].pop()),
        ("coef", lambda d: d.update(coef=d["coef"][0])),
        ("coef", lambda d: d["coef"].append(d["coef"][0])),
        ("bias", lambda d: d["bias"].pop()),
        ("kkt_residual", lambda d: d["kkt_residual"].append(0.0)),
        ("converged", lambda d: d.update(converged=True)),
        ("coef", lambda d: d["classes"].append("d")),
        ("coef", lambda d: d.update(coef="none")),
    ])
    def test_shape_disagrees(self, rng, key, edit):
        doc = self.doc(rng)
        edit(doc)
        with pytest.raises(ScatFeatError, match=key):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("match, edit", [
        ("SVM gamma", lambda d: d.update(gamma=-1.0)),
        ("SVM gamma", lambda d: d.update(gamma=0.0)),
        ("SVM C", lambda d: d.update(c="nan")),
        ("SVM C", lambda d: d.update(c=float("inf"))),
        ("classes", lambda d: d.update(classes=["b", "a", "c"])),  # flips votes
        ("classes", lambda d: d.update(classes=["a", "a", "c"])),
        ("classes", lambda d: d.update(classes="abc")),
        ("classes", lambda d: d.update(classes=["a"])),
        ("classes", lambda d: d.update(classes=[])),
        ("bias", lambda d: d["bias"].__setitem__(0, float("nan"))),
        ("coef", lambda d: d["coef"][0].__setitem__(0, float("inf"))),
        ("support_vectors", lambda d: d["support_vectors"][0].__setitem__(
            0, float("-inf"))),
        ("mean", lambda d: d["standardizer"]["mean"].__setitem__(0, float("nan"))),
        ("std", lambda d: d["standardizer"]["std"].__setitem__(0, 0.0)),
        ("std", lambda d: d["standardizer"]["std"].__setitem__(1, -1.0)),
        ("kkt_residual", lambda d: d["kkt_residual"].__setitem__(0, float("nan"))),
    ])
    def test_value_svm_train_cannot_write(self, rng, match, edit):
        """svm_train writes finite arrays, a floored std, C and gamma that
        pass svm_axis, and two or more distinct classes in ascending order."""
        doc = self.doc(rng)
        edit(doc)
        with pytest.raises(ScatFeatError, match=match):
            model_from_json(json.dumps(doc))
