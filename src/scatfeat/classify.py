"""Feature standardization and one-vs-one RBF-kernel SVM trained by SMO.

A model is stored in LIBSVM's one-vs-one layout (Chang & Lin, ACM TIST
2011): one matrix of the training rows that support any class pair, and one
coefficient column per pair. The decision values of every pair for a batch
of rows are then one kernel product, rbf_kernel(rows, support_vectors) @
coef + bias.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateClassError, DimensionMismatchError,
                     InvalidSvmParamError, ScatFeatError, TooFewRowsError)

# The solver iterates well past the contract so the decision function is
# insensitive (within ~1e-6) to the training sample order.
SOLVER_TOL = 1e-7
MAX_SMO_ITER = 1_000_000
_STD_FLOOR = 1e-12
_SV_TRUNCATE = 1e-12


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray


def standardize_fit(x: np.ndarray) -> Standardizer:
    """Per-dimension z-scoring statistics; std floored at 1e-12."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise TooFewRowsError("standardizer needs at least two rows")
    return Standardizer(x.mean(axis=0), np.maximum(x.std(axis=0), _STD_FLOOR))


def standardize_apply(s: Standardizer, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != s.mean.shape[0]:
        raise DimensionMismatchError(
            f"got {x.shape[-1]} dims, standardizer has {s.mean.shape[0]}")
    return (x - s.mean) / s.std


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||u - v||^2 for all row pairs, clipped at 0 against rounding."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """k(u, v) = exp(-gamma * ||u - v||^2) for all row pairs."""
    return np.exp(-gamma * sq_distances(a, b))


def smo_solve(kernel: np.ndarray, y: np.ndarray, c: float,
              tol: float = SOLVER_TOL, max_iter: int = MAX_SMO_ITER):
    """Solve the binary soft-margin SVM dual by sequential minimal
    optimization with maximal-violating-pair working-set selection.

    y holds +-1 labels; kernel is the full Gram matrix. Iterates until the
    KKT violation max_{i in I_up} v_i - min_{j in I_low} v_j <= tol, where
    v = y - Ka (with a = alpha*y), or until max_iter updates. Ties in the
    working set go to the lowest index, which makes the solver
    deterministic for a fixed input order.

    Returns (alpha, bias, kkt_residual, converged, n_iter); converged is
    kkt_residual <= tol, also when the max_iter-th update reached it.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    v = y.copy()  # v_k = y_k - sum_m alpha_m y_m K(m, k)
    # Per-index scalars live in Python lists: one update touches two
    # entries, and numpy scalar access costs more than the arithmetic.
    pos_rows = y > 0
    alpha = [0.0] * n
    pos = pos_rows.tolist()
    diag = kernel.diagonal().tolist()
    # I_up / I_low membership as additive penalties: v + up_pen is v on
    # I_up and -inf off it, v + low_pen is v on I_low and +inf off it.
    # At alpha = 0 only 0 < c can hold; an update changes entries i and j.
    up_pen = np.where(pos_rows & (0.0 < c), 0.0, -np.inf)
    low_pen = np.where(~pos_rows & (0.0 < c), 0.0, np.inf)
    vi, vj, delta = np.empty(n), np.empty(n), np.empty(n)
    # Pass k checks the KKT conditions after k updates, so the pass that
    # stops the loop supplies the residual and the fallback bias.
    for n_iter in range(max_iter + 1):
        np.add(v, up_pen, out=vi)
        np.add(v, low_pen, out=vj)
        i = int(vi.argmax())
        j = int(vj.argmin())
        vi_max, vj_min = vi.item(i), vj.item(j)
        violation = vi_max - vj_min
        if violation <= tol or n_iter == max_iter:
            break
        quad = max(diag[i] + diag[j] - 2.0 * kernel.item(i, j), _STD_FLOOR)
        step = violation / quad
        # alpha_i moves along +y_i, alpha_j along -y_j; both stay in [0, c]
        pos_i, pos_j = pos[i], pos[j]
        limit_i = c - alpha[i] if pos_i else alpha[i]
        limit_j = alpha[j] if pos_j else c - alpha[j]
        step = min(step, limit_i, limit_j)
        alpha[i] = min(max(alpha[i] + (step if pos_i else -step), 0.0), c)
        alpha[j] = min(max(alpha[j] - (step if pos_j else -step), 0.0), c)
        for k, pos_k in ((i, pos_i), (j, pos_j)):
            a = alpha[k]
            up_pen[k] = 0.0 if (a < c if pos_k else a > 0.0) else -np.inf
            low_pen[k] = 0.0 if (a > 0.0 if pos_k else a < c) else np.inf
        np.subtract(kernel[i], kernel[j], out=delta)
        delta *= step
        v -= delta

    alpha = np.array(alpha)
    free = (alpha > _SV_TRUNCATE) & (alpha < c - _SV_TRUNCATE)
    if np.any(free):
        bias = float(np.mean(v[free]))
    else:
        bias = float((vi_max + vj_min) / 2.0)
    return alpha, bias, float(violation), bool(violation <= tol), n_iter


def _class_pairs(n_classes: int) -> list[tuple[int, int]]:
    """The one-vs-one pairs (ia, ib), ia < ib, in model column order."""
    return list(itertools.combinations(range(n_classes), 2))


@dataclass(frozen=True)
class SvmModel:
    """One-vs-one machines over one support-vector matrix.

    Column p belongs to the p-th pair (ia, ib) of _class_pairs; a decision
    value > 0 votes classes[ia]. support_vectors (n_sv, d) holds, in
    training order, the rows that are a support vector of at least one
    pair; coef (n_sv, n_pairs) holds each pair's alpha * y, 0 on rows the
    pair does not use. bias, kkt_residual and converged hold one entry per
    pair.
    """

    classes: tuple[str, ...]
    support_vectors: np.ndarray
    coef: np.ndarray
    bias: np.ndarray
    kkt_residual: np.ndarray
    converged: np.ndarray
    gamma: float
    c: float
    standardizer: Standardizer

    @property
    def convergence_warnings(self) -> list[str]:
        return [f"pair ({self.classes[ia]}, {self.classes[ib]}) hit the SMO "
                f"iteration cap (residual {residual:.3g})"
                for (ia, ib), residual, converged in zip(
                    _class_pairs(len(self.classes)), self.kkt_residual, self.converged)
                if not converged]


def svm_axis(name: str, values) -> list[float]:
    """The values sorted ascending. An empty axis trains nothing, and each
    value must be a finite number > 0 (at C = 0 the bias is NaN)."""
    values = sorted(float(v) for v in values)
    if not values or not all(0.0 < v < np.inf for v in values):
        raise InvalidSvmParamError(f"SVM {name} needs finite values > 0, got {values}")
    return values


def svm_train(x: np.ndarray, y, c: float, gamma: float,
              standardizer: Standardizer | None = None) -> SvmModel:
    """Train one-vs-one binary machines on (already standardized) features.

    The standardizer that produced x travels with the model so that
    svm_predict can be fed raw features. Passing None stores an identity.
    """
    svm_axis("C", [c])
    svm_axis("gamma", [gamma])
    x = np.asarray(x, dtype=np.float64)
    return _train_on_kernel(x, y, rbf_kernel(x, x, gamma), c, gamma, standardizer)


def _train_on_kernel(x: np.ndarray, y, kernel: np.ndarray, c: float,
                     gamma: float, standardizer: Standardizer | None = None
                     ) -> SvmModel:
    """svm_train given kernel = rbf_kernel(x, x, gamma); each pair's Gram
    matrix is a slice of it, and its alpha * y fills the pair's coef column."""
    labels = np.asarray(y)
    classes = tuple(sorted(set(labels.tolist())))
    if len(classes) < 2:
        raise DegenerateClassError(f"need at least two classes, got {classes}")
    if standardizer is None:
        standardizer = Standardizer(np.zeros(x.shape[1]), np.ones(x.shape[1]))

    pairs = _class_pairs(len(classes))
    coef = np.zeros((len(labels), len(pairs)))
    bias, residual, converged = (np.empty(len(pairs)), np.empty(len(pairs)),
                                 np.empty(len(pairs), dtype=bool))
    for p, (ia, ib) in enumerate(pairs):
        sel = np.flatnonzero((labels == classes[ia]) | (labels == classes[ib]))
        ys = np.where(labels[sel] == classes[ia], 1.0, -1.0)
        alpha, bias[p], residual[p], converged[p], _ = smo_solve(
            kernel[np.ix_(sel, sel)], ys, c)
        keep = alpha > _SV_TRUNCATE
        coef[sel[keep], p] = (alpha * ys)[keep]
    used = coef.any(axis=1)
    return SvmModel(classes, x[used], coef[used], bias, residual, converged,
                    float(gamma), float(c), standardizer)


def svm_decision_values(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Per-pair decision values for raw feature rows, shape (n, n_pairs)."""
    xs = standardize_apply(model.standardizer, np.atleast_2d(x))
    return rbf_kernel(xs, model.support_vectors, model.gamma) @ model.coef + model.bias


def svm_predict(model: SvmModel, x: np.ndarray):
    """Majority vote over pair decisions.

    Ties are broken by the summed |decision| margin of won pairs, then by
    class order. A single feature row yields a single label, a matrix yields
    an array of labels.
    """
    decisions = svm_decision_values(model, x)
    n = decisions.shape[0]
    votes = np.zeros((n, len(model.classes)))
    margins = np.zeros((n, len(model.classes)))
    for col, (ka, kb) in enumerate(_class_pairs(len(model.classes))):
        d = decisions[:, col]
        winner_a = d > 0
        votes[winner_a, ka] += 1
        votes[~winner_a, kb] += 1
        margins[winner_a, ka] += np.abs(d[winner_a])
        margins[~winner_a, kb] += np.abs(d[~winner_a])
    # argmax takes the first maximum, so equal margins go to class order
    top = votes == votes.max(axis=1, keepdims=True)
    winners = np.argmax(np.where(top, margins, -np.inf), axis=1)
    labels = [model.classes[k] for k in winners]
    return labels[0] if np.ndim(x) == 1 else np.array(labels)


@dataclass(frozen=True)
class GridSearchResult:
    best_c: float
    best_gamma: float
    valid_uar: float
    model: SvmModel  # trained on all of train at (best_c, best_gamma)


def grid_search(train, valid, c_values, gamma_values) -> GridSearchResult:
    """Pick (c, gamma) maximizing validation UAR and return its model.

    train and valid are (X, y) with X already standardized by training-set
    statistics. Every cell trains on all of train, so the winning cell's
    model is the final one; it carries an identity standardizer, so feed
    it rows standardized like train. Ties prefer smaller c, then smaller
    gamma. An empty axis, or a value that is not a finite number > 0, is an
    InvalidSvmParamError.
    """
    from .evaluation import confusion, uar  # metric lives with the harness

    c_values, gamma_values = svm_axis("C", c_values), svm_axis("gamma", gamma_values)
    x_train, y_train = train
    x_train = np.asarray(x_train, dtype=np.float64)
    x_valid, y_valid = valid
    classes = tuple(sorted(set(list(y_train) + list(y_valid))))
    # one distance matrix per call: each cell's kernel is exp(-gamma * sq),
    # exactly what svm_train's rbf_kernel(x_train, x_train, gamma) computes
    sq = sq_distances(x_train, x_train)
    best = None
    for c in c_values:
        for gamma in gamma_values:
            model = _train_on_kernel(x_train, y_train, np.exp(-gamma * sq), c, gamma)
            pred = svm_predict(model, np.atleast_2d(x_valid))
            score = uar(confusion(list(y_valid), list(pred), classes))
            if best is None or score > best.valid_uar:
                best = GridSearchResult(c, gamma, score, model)
    return best


def kkt_residual(kernel: np.ndarray, y: np.ndarray, alpha: np.ndarray,
                 c: float) -> float:
    """Recompute the maximal KKT violation from a full dual solution."""
    y = np.asarray(y, dtype=np.float64)
    v = y - kernel @ (alpha * y)
    pos = y > 0
    up = np.where(pos, alpha < c, alpha > 0.0)
    low = np.where(pos, alpha > 0.0, alpha < c)
    return float(np.max(np.where(up, v, -np.inf)) -
                 np.min(np.where(low, v, np.inf)))


def model_to_json(model: SvmModel) -> str:
    """Serialize as a single JSON document with round-trip float precision."""
    doc = {key: getattr(model, key).tolist() for key in
           ("support_vectors", "coef", "bias", "kkt_residual", "converged")}
    doc.update(classes=list(model.classes), gamma=model.gamma, c=model.c,
               standardizer={"mean": model.standardizer.mean.tolist(),
                             "std": model.standardizer.std.tolist()})
    return json.dumps(doc, sort_keys=True)


def _doc_array(doc: dict, key: str, *shape: int) -> np.ndarray:
    """doc[key] as a float64 array of `shape`, where -1 matches any length."""
    try:
        arr = np.array(doc[key], dtype=np.float64)
        arr = arr.reshape(shape) if arr.size == 0 else arr  # JSON writes empty as []
    except (TypeError, ValueError) as exc:
        raise ScatFeatError(f"model {key!r}: {exc}") from None
    if arr.ndim != len(shape) or any(n not in (-1, m) for n, m in zip(shape, arr.shape)):
        raise ScatFeatError(f"model {key!r} has shape {arr.shape}, expected {shape}")
    return arr


def model_from_json(text: str) -> SvmModel:
    """Inverse of model_to_json. A missing key, a value of the wrong type,
    or an array whose shape disagrees with the classes or the standardizer,
    is a ScatFeatError."""
    try:
        doc = json.loads(text)
        classes = tuple(doc["classes"])
        n_pairs = len(_class_pairs(len(classes)))
        mean = _doc_array(doc["standardizer"], "mean", -1)
        std = _doc_array(doc["standardizer"], "std", len(mean))
        support_vectors = _doc_array(doc, "support_vectors", -1, len(mean))
        coef = _doc_array(doc, "coef", len(support_vectors), n_pairs)
        bias, residual, converged = (_doc_array(doc, key, n_pairs) for key in
                                     ("bias", "kkt_residual", "converged"))
        return SvmModel(classes, support_vectors, coef, bias, residual,
                        converged.astype(bool), float(doc["gamma"]),
                        float(doc["c"]), Standardizer(mean, std))
    except KeyError as exc:
        raise ScatFeatError(f"model document lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ScatFeatError(f"malformed model document: {exc}") from None
