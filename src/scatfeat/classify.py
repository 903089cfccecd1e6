"""Feature standardization and one-vs-one RBF-kernel SVM trained by SMO."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateClassError, DimensionMismatchError,
                     TooFewRowsError)

KKT_TOL = 1e-3  # contract bound on the post-training KKT residual
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


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """k(u, v) = exp(-gamma * ||u - v||^2) for all row pairs."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


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
    y = np.asarray(y, dtype=np.float64)
    alpha = np.zeros(y.size)
    v = y.copy()  # v_k = y_k - sum_m alpha_m y_m K(m, k)
    pos = y > 0
    # Pass k checks the KKT conditions after k updates, so the pass that
    # stops the loop supplies the residual and the fallback bias.
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
        # alpha_i moves along +y_i, alpha_j along -y_j; both stay in [0, c]
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


@dataclass(frozen=True)
class PairMachine:
    """Binary machine for one class pair; decision > 0 votes class_a."""

    class_a: str
    class_b: str
    support_vectors: np.ndarray
    alpha_y: np.ndarray
    bias: float
    kkt_residual: float
    converged: bool


@dataclass(frozen=True)
class SvmModel:
    classes: tuple[str, ...]
    pairs: tuple[PairMachine, ...]
    gamma: float
    c: float
    standardizer: Standardizer

    @property
    def convergence_warnings(self) -> list[str]:
        return [f"pair ({m.class_a}, {m.class_b}) hit the SMO iteration cap "
                f"(residual {m.kkt_residual:.3g})"
                for m in self.pairs if not m.converged]


def svm_train(x: np.ndarray, y, c: float, gamma: float,
              standardizer: Standardizer | None = None) -> SvmModel:
    """Train one-vs-one binary machines on (already standardized) features.

    The standardizer that produced x travels with the model so that
    svm_predict can be fed raw features. Passing None stores an identity.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(y)
    classes = tuple(sorted(set(labels.tolist())))
    if len(classes) < 2:
        raise DegenerateClassError(f"need at least two classes, got {classes}")
    if standardizer is None:
        standardizer = Standardizer(np.zeros(x.shape[1]), np.ones(x.shape[1]))

    machines = []
    for ia in range(len(classes)):
        for ib in range(ia + 1, len(classes)):
            sel = (labels == classes[ia]) | (labels == classes[ib])
            xs = x[sel]
            ys = np.where(labels[sel] == classes[ia], 1.0, -1.0)
            kernel = rbf_kernel(xs, xs, gamma)
            alpha, bias, residual, converged, _ = smo_solve(kernel, ys, c)
            keep = alpha > _SV_TRUNCATE
            machines.append(PairMachine(classes[ia], classes[ib],
                                        xs[keep], (alpha * ys)[keep],
                                        bias, residual, converged))
    return SvmModel(classes, tuple(machines), float(gamma), float(c), standardizer)


def svm_decision_values(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Per-pair decision values for raw feature rows, shape (n, n_pairs)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    xs = standardize_apply(model.standardizer, x)
    out = np.empty((xs.shape[0], len(model.pairs)))
    for col, m in enumerate(model.pairs):
        out[:, col] = rbf_kernel(xs, m.support_vectors, model.gamma) @ m.alpha_y + m.bias
    return out


def svm_predict(model: SvmModel, x: np.ndarray):
    """Majority vote over pair decisions.

    Ties are broken by the summed |decision| margin of won pairs, then by
    class order. A single feature row yields a single label, a matrix yields
    an array of labels.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    decisions = svm_decision_values(model, x)
    class_index = {cls: k for k, cls in enumerate(model.classes)}
    n = decisions.shape[0]
    votes = np.zeros((n, len(model.classes)))
    margins = np.zeros((n, len(model.classes)))
    for col, m in enumerate(model.pairs):
        d = decisions[:, col]
        winner_a = d > 0
        ka, kb = class_index[m.class_a], class_index[m.class_b]
        votes[winner_a, ka] += 1
        votes[~winner_a, kb] += 1
        margins[winner_a, ka] += np.abs(d[winner_a])
        margins[~winner_a, kb] += np.abs(d[~winner_a])
    # argmax takes the first maximum, so equal margins go to class order
    top = votes == votes.max(axis=1, keepdims=True)
    winners = np.argmax(np.where(top, margins, -np.inf), axis=1)
    labels = [model.classes[k] for k in winners]
    return labels[0] if single else np.array(labels)


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
    gamma.
    """
    from .evaluation import confusion, uar  # metric lives with the harness

    x_train, y_train = train
    x_valid, y_valid = valid
    classes = tuple(sorted(set(list(y_train) + list(y_valid))))
    best = None
    for c in sorted(float(v) for v in c_values):
        for gamma in sorted(float(v) for v in gamma_values):
            model = svm_train(x_train, y_train, c, gamma)
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
    doc = {
        "classes": list(model.classes),
        "gamma": model.gamma,
        "c": model.c,
        "standardizer": {"mean": model.standardizer.mean.tolist(),
                         "std": model.standardizer.std.tolist()},
        "pairs": [{
            "class_a": m.class_a,
            "class_b": m.class_b,
            "sv": m.support_vectors.tolist(),
            "alpha_y": m.alpha_y.tolist(),
            "bias": m.bias,
            "kkt_residual": m.kkt_residual,
            "converged": m.converged,
        } for m in model.pairs],
    }
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str) -> SvmModel:
    doc = json.loads(text)
    standardizer = Standardizer(np.array(doc["standardizer"]["mean"], dtype=np.float64),
                                np.array(doc["standardizer"]["std"], dtype=np.float64))
    dim = standardizer.mean.shape[0]
    pairs = tuple(
        PairMachine(p["class_a"], p["class_b"],
                    np.array(p["sv"], dtype=np.float64).reshape(-1, dim),
                    np.array(p["alpha_y"], dtype=np.float64),
                    float(p["bias"]), float(p["kkt_residual"]),
                    bool(p["converged"]))
        for p in doc["pairs"])
    return SvmModel(tuple(doc["classes"]), pairs, float(doc["gamma"]),
                    float(doc["c"]), standardizer)
