"""Feature standardization and one-vs-one RBF-kernel SVM trained by SMO.

A model is stored in LIBSVM's one-vs-one layout (Chang & Lin, ACM TIST
2011): one matrix of the training rows that support any class pair, and one
coefficient column per pair. The decision values of every pair for a batch
of rows are then one kernel product, rbf_kernel(rows, support_vectors) @
coef + bias, and one vectorized vote (_vote) turns them into classes:
np.bincount counts the votes and np.add.at sums each class's won margins
pair by pair, in the order a loop over the pairs would, so a tie on votes
is broken by the same margins, bit for bit.

A training label vector's pair layout (each pair's rows, its +-1 labels
and the training classes) depends on no C or gamma; grid_search builds it
once per call (_PairTable) and scores every cell on class indices.

A grid search solves each distinct dual once. C enters the SMO only
through the upper limit c - alpha of a step, the clamp at c, the
membership tests alpha < c and the free-set test alpha < c - 1e-12, and
rounding is monotone. So a solve at C = c that never cut a step at an
upper limit and kept every alpha below c - 1e-12 (it reports bound_free)
takes the same iterates at every larger C, and grid_search reuses it
there, bit for bit, instead of solving again.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateClassError, DimensionMismatchError,
                     InvalidSvmParamError, NonFiniteFeatureError,
                     ScatFeatError, TooFewRowsError)

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


def _finite_rows(name: str, x) -> np.ndarray:
    """x as a float64 matrix of rows; a NaN or infinity in it is a
    NonFiniteFeatureError naming its row."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise NonFiniteFeatureError(
            f"{name} row {int(np.argmin(finite))} holds a non-finite value")
    return x


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
              max_iter: int = MAX_SMO_ITER):
    """Solve the binary soft-margin SVM dual by sequential minimal
    optimization with maximal-violating-pair working-set selection.

    y holds +-1 labels; kernel is the full Gram matrix. Iterates until the
    KKT violation max_{i in I_up} v_i - min_{j in I_low} v_j <= SOLVER_TOL,
    where v = y - Ka (with a = alpha*y), or until max_iter updates. The
    tolerance is a module constant, the same for every solve. Ties in the
    working set go to the lowest index, which makes the solver
    deterministic for a fixed input order.

    Returns (alpha, bias, kkt_residual, converged, n_iter, bound_free);
    converged is kkt_residual <= SOLVER_TOL, also when the max_iter-th
    update reached it. bound_free says that no step was cut at an upper limit
    c - alpha and that every alpha stayed below c - 1e-12, so the solve
    at any larger C returns the same bits. c must be a finite number > 0,
    else InvalidSvmParamError; y needs both signs, else
    DegenerateClassError.
    """
    if not 0.0 < c < np.inf:  # not svm_axis: two-row solves are many and cheap
        raise InvalidSvmParamError(f"SVM C needs a finite value > 0, got {c}")
    kernel = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pos_rows = y > 0
    if pos_rows.all() or not pos_rows.any():  # the bias would be +-inf
        raise DegenerateClassError("SMO needs labels of both signs")
    # Per-index scalars live in Python lists: one update touches two
    # entries, and numpy scalar access costs more than the arithmetic.
    alpha = [0.0] * y.size
    pos = pos_rows.tolist()
    diag = kernel.diagonal().tolist()
    # v_k = y_k - sum_m alpha_m y_m K(m, k) is kept in two rows: w[0] is v
    # on I_up and -inf off it, w[1] is -v on I_low and -inf off it, so one
    # argmax per row picks i (max of v on I_up) and j (lowest index of the
    # min of v on I_low). Since c > 0, each index is in I_up (alpha below
    # its upper limit) or I_low (above its lower limit), so one row always
    # holds v_k. At alpha = 0, I_up is the positive rows and I_low the rest.
    w = np.array([np.where(pos_rows, y, -np.inf), np.where(pos_rows, -np.inf, -y)])
    up, low = pos[:], [not p for p in pos]
    # An update subtracts step * (K[i] - K[j]) from v and adds it to -v.
    # Negation is exact, so both rows round as v -= step * (K[i] - K[j]).
    rows = kernel[:, None, :] * np.array([[1.0], [-1.0]])
    delta = np.empty_like(w)
    top, bound_free = c - _SV_TRUNCATE, True
    # Pass k checks the KKT conditions after k updates, so the pass that
    # stops the loop supplies the residual and the fallback bias.
    for n_iter in range(max_iter + 1):
        i, j = w.argmax(axis=1).tolist()
        vi_max, vj_min = w.item(0, i), -w.item(1, j)
        violation = vi_max - vj_min
        if violation <= SOLVER_TOL or n_iter == max_iter:
            break
        quad = diag[i] + diag[j] - 2.0 * kernel.item(i, j)
        step = violation / (_STD_FLOOR if _STD_FLOOR > quad else quad)
        # alpha_i moves along +y_i, alpha_j along -y_j; both stay in [0, c].
        # The comparisons below tie as min() and max() do: the first wins.
        # A cut at an upper limit c - alpha would cut less at a larger C.
        pos_i, pos_j = pos[i], pos[j]
        limit = c - alpha[i] if pos_i else alpha[i]
        if limit < step:
            step = limit
            bound_free = bound_free and not pos_i
        limit = alpha[j] if pos_j else c - alpha[j]
        if limit < step:
            step = limit
            bound_free = bound_free and pos_j
        for k, moved in ((i, step if pos_i else -step), (j, -step if pos_j else step)):
            a = alpha[k] + moved
            a = 0.0 if 0.0 > a else a
            if a >= top:  # top <= c, so this also catches the clamp at c
                bound_free = False
                a = c if c < a else a
            alpha[k] = a
            in_up = a < c if pos[k] else a > 0.0
            in_low = a > 0.0 if pos[k] else a < c
            if in_up != up[k] or in_low != low[k]:
                # rewrite the rows only where membership changed
                v_k = w.item(0, k) if up[k] else -w.item(1, k)
                w[0, k] = v_k if in_up else -np.inf
                w[1, k] = -v_k if in_low else -np.inf
                up[k], low[k] = in_up, in_low
        np.subtract(rows[i], rows[j], out=delta)
        delta *= step
        w -= delta

    alpha = np.array(alpha)
    free = (alpha > _SV_TRUNCATE) & (alpha < top)
    if np.any(free):  # a free index is in I_up, so w[0] holds its v
        bias = float(np.mean(w[0][free]))
    else:
        bias = float((vi_max + vj_min) / 2.0)
    return alpha, bias, float(violation), bool(violation <= SOLVER_TOL), n_iter, bound_free


def _class_pairs(n_classes: int) -> list[tuple[int, int]]:
    """The one-vs-one pairs (ia, ib), ia < ib, in model column order."""
    return list(itertools.combinations(range(n_classes), 2))


@functools.lru_cache(maxsize=None)
def _pair_ends(n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and the second class of each pair of _class_pairs, as two
    read-only index arrays."""
    ends = np.array(_class_pairs(n_classes)).reshape(-1, 2).T
    ends.setflags(write=False)
    return ends[0], ends[1]


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
    x = _finite_rows("training", x)
    table = _pair_table(y)
    if standardizer is None:
        standardizer = _identity(x.shape[1])
    return _train_on_kernel(x, table, rbf_kernel(x, x, gamma), c, gamma, standardizer)


def _identity(dim: int) -> Standardizer:
    return Standardizer(np.zeros(dim), np.ones(dim))


@dataclass(frozen=True)
class _PairTable:
    """The one-vs-one layout of a training label vector, which no C or
    gamma changes. classes holds the sorted training classes. For the p-th
    pair (ia, ib) of _class_pairs, rows[p] selects the training rows of its
    two classes, and signs[p] holds +1 on those of classes[ia] and -1 on
    those of classes[ib]."""

    classes: tuple
    rows: tuple[np.ndarray, ...]
    signs: tuple[np.ndarray, ...]


def _pair_table(y) -> _PairTable:
    names, codes = np.unique(np.asarray(y), return_inverse=True)
    classes = tuple(names.tolist())
    if len(classes) < 2:
        raise DegenerateClassError(f"need at least two classes, got {classes}")
    rows, signs = [], []
    for ia, ib in _class_pairs(len(classes)):
        sel = np.flatnonzero((codes == ia) | (codes == ib))
        rows.append(sel)
        signs.append(np.where(codes[sel] == ia, 1.0, -1.0))
    return _PairTable(classes, tuple(rows), tuple(signs))


def _train_on_kernel(x: np.ndarray, table: _PairTable, kernel: np.ndarray,
                     c: float, gamma: float, standardizer: Standardizer,
                     reusable: dict | None = None) -> SvmModel:
    """svm_train given table = _pair_table(y) and kernel = rbf_kernel(x, x,
    gamma); each pair's Gram matrix is a slice of it, and its alpha * y
    fills the pair's coef column.

    reusable maps a pair's column to a bound-free solve of this kernel at a
    smaller C, which is also its solve at c; those pairs are not solved
    again, and every new bound-free solve is added to it.
    """
    reusable = {} if reusable is None else reusable
    n_pairs = len(table.rows)
    coef = np.zeros((len(x), n_pairs))
    bias, residual, converged = (np.empty(n_pairs), np.empty(n_pairs),
                                 np.empty(n_pairs, dtype=bool))
    for p, (sel, ys) in enumerate(zip(table.rows, table.signs)):
        solve = reusable.get(p) or smo_solve(kernel[sel[:, None], sel], ys, c)
        alpha, bias[p], residual[p], converged[p], _, bound_free = solve
        if bound_free:
            reusable[p] = solve
        keep = alpha > _SV_TRUNCATE
        coef[sel[keep], p] = (alpha * ys)[keep]
    used = coef.any(axis=1)
    return SvmModel(table.classes, x[used], coef[used], bias, residual, converged,
                    float(gamma), float(c), standardizer)


def svm_decision_values(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Per-pair decision values for raw feature rows, shape (n, n_pairs)."""
    xs = standardize_apply(model.standardizer, _finite_rows("predicted", x))
    return rbf_kernel(xs, model.support_vectors, model.gamma) @ model.coef + model.bias


def _vote(decisions: np.ndarray, n_classes: int) -> np.ndarray:
    """Each row's winning class index by majority vote over its pair
    decisions, columns in _class_pairs order.

    Ties are broken by the summed |decision| margin of won pairs, then by
    class order. Votes are counted by np.bincount; margins are summed by
    np.add.at over the pairs in column order, so each class's margin adds
    the same terms in the same order as a loop over the pairs.
    """
    n = decisions.shape[0]
    first, second = _pair_ends(n_classes)
    won = np.where(decisions > 0, first, second) + n_classes * np.arange(n)[:, None]
    won = won.T.ravel()  # pair-major: pair 0 of every row, then pair 1, ...
    votes = np.bincount(won, minlength=n * n_classes).reshape(n, n_classes)
    margins = np.zeros(n * n_classes)
    np.add.at(margins, won, np.abs(decisions).T.ravel())
    # argmax takes the first maximum, so equal margins go to class order
    top = votes == votes.max(axis=1, keepdims=True)
    return np.argmax(np.where(top, margins.reshape(n, n_classes), -np.inf), axis=1)


def svm_predict(model: SvmModel, x: np.ndarray):
    """Majority vote over pair decisions (see _vote).

    Ties are broken by the summed |decision| margin of won pairs, then by
    class order. A single feature row yields a single label, a matrix yields
    an array of labels.
    """
    winners = _vote(svm_decision_values(model, x), len(model.classes))
    labels = [model.classes[k] for k in winners]
    return labels[0] if np.ndim(x) == 1 else np.array(labels)


@dataclass(frozen=True)
class GridSearchResult:
    valid_uar: float
    model: SvmModel  # the winning cell's, trained on all of train at its c, gamma


def grid_search(train, valid, c_values, gamma_values) -> GridSearchResult:
    """Pick (c, gamma) maximizing validation UAR and return its model,
    which carries them as model.c and model.gamma.

    train and valid are (X, y) with X already standardized by training-set
    statistics. Every cell trains on all of train, so the winning cell's
    model is the final one; it carries an identity standardizer, so feed
    it rows standardized like train. Ties prefer smaller c, then smaller
    gamma. An empty axis, or a value that is not a finite number > 0, is an
    InvalidSvmParamError; a non-finite feature is a NonFiniteFeatureError.

    The pair table and the class codes are built once per call. A cell
    scores the validation rows from their decision values alone: the
    identity standardizer is skipped, since (x - 0) / 1 == x, and the
    votes and the confusion counts are taken on class indices.

    C is walked in ascending order. A pair whose solve at some C was bound
    free (see smo_solve) is not solved again at any larger C of the same
    gamma: that solve is its solve there, bit for bit. A cell whose pairs
    are all reused holds the model of the cell at the previous C, so its
    validation UAR is one that already lost or tied, and it is skipped.
    """
    from .evaluation import code_confusion, uar  # metric lives with the harness

    c_values, gamma_values = svm_axis("C", c_values), svm_axis("gamma", gamma_values)
    x_train, y_train = train
    x_valid, y_valid = valid
    x_train, x_valid = _finite_rows("training", x_train), _finite_rows("validation", x_valid)
    table = _pair_table(y_train)
    n_own = len(table.classes)
    # the classes of train and valid; the training classes and the
    # validation labels as indices into them
    classes, codes = np.unique(np.concatenate([table.classes, np.asarray(y_valid)]),
                               return_inverse=True)
    own, valid_codes = codes[:n_own], codes[n_own:]
    identity = _identity(x_train.shape[1])
    # one distance matrix per call and one kernel per gamma: exp(-gamma * sq)
    # is exactly what svm_train's rbf_kernel(x_train, x_train, gamma) computes
    sq = sq_distances(x_train, x_train)
    kernels = [np.exp(-gamma * sq) for gamma in gamma_values]
    reusable = [{} for _ in gamma_values]  # per gamma: pair column -> solve
    best = None
    for c in c_values:
        for gamma, kernel, reuse in zip(gamma_values, kernels, reusable):
            if len(reuse) == len(table.rows):  # the previous C's model
                continue
            model = _train_on_kernel(x_train, table, kernel, c, gamma, identity, reuse)
            k_valid = rbf_kernel(x_valid, model.support_vectors, gamma)
            pred = own[_vote(k_valid @ model.coef + model.bias, n_own)]
            score = uar(code_confusion(valid_codes, pred, classes))
            if best is None or score > best.valid_uar:
                best = GridSearchResult(score, model)
    return best


def model_to_json(model: SvmModel) -> str:
    """Serialize as a single JSON document with round-trip float precision."""
    doc = {key: getattr(model, key).tolist() for key in
           ("support_vectors", "coef", "bias", "kkt_residual", "converged")}
    doc.update(classes=list(model.classes), gamma=model.gamma, c=model.c,
               standardizer={"mean": model.standardizer.mean.tolist(),
                             "std": model.standardizer.std.tolist()})
    return json.dumps(doc, sort_keys=True)


def _doc_array(doc: dict, key: str, *shape: int) -> np.ndarray:
    """doc[key] as a finite float64 array of `shape`, where -1 matches any
    length."""
    try:
        arr = np.array(doc[key], dtype=np.float64)
        arr = arr.reshape(shape) if arr.size == 0 else arr  # JSON writes empty as []
    except (TypeError, ValueError) as exc:
        raise ScatFeatError(f"model {key!r}: {exc}") from None
    if arr.ndim != len(shape) or any(n not in (-1, m) for n, m in zip(shape, arr.shape)):
        raise ScatFeatError(f"model {key!r} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ScatFeatError(f"model {key!r} holds a non-finite value")
    return arr


def model_from_json(text: str) -> SvmModel:
    """Inverse of model_to_json. A missing key, a value of the wrong type, a
    value svm_train could not have written, or an array whose shape
    disagrees with the classes or the standardizer, is a ScatFeatError.
    svm_train writes finite arrays, a std of at least _STD_FLOOR, C and
    gamma that pass svm_axis, and at least two distinct classes in
    ascending order (see _pair_table)."""
    try:
        doc = json.loads(text)
        classes = doc["classes"]
        if len(classes) < 2 or classes != sorted(set(classes)):  # "ab" != ["a", "b"]
            raise ScatFeatError(f"model 'classes' must be two or more distinct "
                                f"classes in ascending order, got {classes!r}")
        n_pairs = len(_class_pairs(len(classes)))
        mean = _doc_array(doc["standardizer"], "mean", -1)
        std = _doc_array(doc["standardizer"], "std", len(mean))
        if (std < _STD_FLOOR).any():  # standardize_fit floors it there
            raise ScatFeatError(f"model 'std' holds a value below {_STD_FLOOR}")
        support_vectors = _doc_array(doc, "support_vectors", -1, len(mean))
        coef = _doc_array(doc, "coef", len(support_vectors), n_pairs)
        bias, residual, converged = (_doc_array(doc, key, n_pairs) for key in
                                     ("bias", "kkt_residual", "converged"))
        return SvmModel(tuple(classes), support_vectors, coef, bias, residual,
                        converged.astype(bool), svm_axis("gamma", [doc["gamma"]])[0],
                        svm_axis("C", [doc["c"]])[0], Standardizer(mean, std))
    except KeyError as exc:
        raise ScatFeatError(f"model document lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ScatFeatError(f"malformed model document: {exc}") from None
