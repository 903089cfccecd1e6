"""Leave-one-speaker-out evaluation: folds, metrics, sweeps, reports.

run_loso codes labels and speakers as integers once per call. Its folds are
integer masks, grid_search trains and votes on label codes, and both count
each confusion matrix with one np.bincount of codes (code_confusion); the
labels come back only in the report.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .classify import (grid_search, standardize_apply, standardize_fit,
                       svm_predict)
from .config import RunConfig, feature_config_hash
from .errors import (DimensionMismatchError, EmptyMatrixError, ScatFeatError,
                     TooFewRowsError, TooFewSpeakersError, UnknownLabelError)
from .filterbank import FilterBankSpec


@dataclass(frozen=True)
class ManifestRow:
    utterance_id: str
    path: str
    speaker_id: str
    label: str


def load_manifest(path) -> list[ManifestRow]:
    """Read a manifest CSV with header utterance_id,path,speaker_id,label.
    A field that is empty or only whitespace is an error naming its line and
    field: an empty speaker_id would become a LOSO fold of its own."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["utterance_id", "path", "speaker_id", "label"]:
            raise ScatFeatError(f"{path}: bad manifest header {header}")
        rows = []
        for r in reader:
            if not r:
                continue
            if len(r) != 4:
                raise ScatFeatError(
                    f"{path}:{reader.line_num}: expected 4 fields, got {len(r)}")
            for name, value in zip(header, r):
                if not value.strip():
                    raise ScatFeatError(f"{path}:{reader.line_num}: empty {name}")
            rows.append(ManifestRow(*r))
    if not rows:
        raise ScatFeatError(f"{path}: manifest has no rows")
    dupes = sorted(i for i, n in Counter(r.utterance_id for r in rows).items() if n > 1)
    if dupes:
        raise ScatFeatError(f"{path}: duplicate utterance_ids {dupes[:5]}")
    return rows


def manifest_warnings(rows: list[ManifestRow]) -> list[str]:
    """Labels carried by fewer than two speakers make some folds unable to
    see that class; warn rather than fail."""
    warnings = []
    by_label: dict[str, set] = {}
    for r in rows:
        by_label.setdefault(r.label, set()).add(r.speaker_id)
    for label in sorted(by_label):
        if len(by_label[label]) < 2:
            warnings.append(f"label {label!r} appears for only "
                            f"{len(by_label[label])} speaker(s)")
    return warnings


def loso_splits(rows):
    """One fold per speaker as test; the next speaker in sorted cyclic order
    validates; the rest train. rows are any records with a speaker_id
    (manifest or feature rows). Returns (train_speakers, valid, test)
    tuples."""
    speakers = sorted({r.speaker_id for r in rows})
    if len(speakers) < 3:
        raise TooFewSpeakersError(f"need at least 3 speakers, got {len(speakers)}")
    folds = []
    for k, test in enumerate(speakers):
        valid = speakers[(k + 1) % len(speakers)]
        train = tuple(s for s in speakers if s not in (test, valid))
        folds.append((train, valid, test))
    return folds


@dataclass(frozen=True)
class ConfusionMatrix:
    classes: tuple[str, ...]
    counts: np.ndarray  # rows true, cols predicted

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(true_labels, pred_labels, classes) -> ConfusionMatrix:
    if len(true_labels) != len(pred_labels):
        raise ValueError("label sequences differ in length")
    classes = tuple(classes)
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(true_labels, pred_labels):
        if t not in index or p not in index:
            raise UnknownLabelError(f"label {t!r} or {p!r} not in {classes}")
        counts[index[t], index[p]] += 1
    return ConfusionMatrix(classes, counts)


def code_confusion(true_codes, pred_codes, classes) -> ConfusionMatrix:
    """confusion() for labels given as indices into classes, counted in one
    np.bincount."""
    k = len(classes)
    counts = np.bincount(np.asarray(true_codes) * k + pred_codes, minlength=k * k)
    return ConfusionMatrix(tuple(classes), counts.reshape(k, k))


def uar(cm: ConfusionMatrix) -> float:
    """Unweighted average recall: mean of per-class recalls over non-empty
    rows (classes absent from the evaluated set are excluded)."""
    row_sums = cm.counts.sum(axis=1)
    if cm.total == 0:
        raise EmptyMatrixError("confusion matrix holds no samples")
    filled = row_sums > 0
    recalls = np.diag(cm.counts)[filled] / row_sums[filled]
    return float(recalls.mean())


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise EmptyMatrixError("confusion matrix holds no samples")
    return float(np.trace(cm.counts) / cm.total)


def missing_classes(cm: ConfusionMatrix) -> tuple[str, ...]:
    row_sums = cm.counts.sum(axis=1)
    return tuple(c for c, s in zip(cm.classes, row_sums) if s == 0)


@dataclass(frozen=True)
class FeatureRow:
    """One extracted utterance: id, speaker, label and feature vector."""
    utterance_id: str
    speaker_id: str
    label: str
    vector: np.ndarray


@dataclass(frozen=True)
class FoldReport:
    test_speaker: str
    valid_speaker: str
    best_c: float
    best_gamma: float
    accuracy: float
    uar: float
    confusion: ConfusionMatrix
    missing_classes: tuple[str, ...]
    convergence_warnings: tuple[str, ...]


@dataclass(frozen=True)
class ExperimentReport:
    feature_kind: str
    config_hash: str
    classes: tuple[str, ...]
    folds: tuple[FoldReport, ...]
    mean_accuracy: float
    mean_uar: float
    pooled_confusion: ConfusionMatrix
    pooled_accuracy: float
    pooled_uar: float

    @property
    def convergence_warnings(self) -> list[str]:
        out = []
        for f in self.folds:
            out.extend(f.convergence_warnings)
        return out


def run_loso(rows: list[FeatureRow], c_values=RunConfig.svm_c,
             gamma_values=None, feature_kind: str = "",
             config_hash: str = "") -> ExperimentReport:
    """Grid-searched LOSO evaluation over pre-extracted feature rows.

    Per fold: standardizer fit on the training speakers only and applied to
    the train, valid and test rows; grid search on (train, valid); the
    winning cell's model, trained on all of train during the search,
    predicts the held-out test speaker without a retrain. The grid defaults
    to RunConfig's svm_c and svm_gamma_scale, the scales divided by the
    feature dimension. Rows of different dimensions are a
    DimensionMismatchError naming the first that differs from rows[0].
    """
    if not rows:
        raise TooFewRowsError("LOSO evaluation needs feature rows, got none")
    dim = rows[0].vector.shape[0]
    for r in rows:
        if r.vector.shape != (dim,):
            raise DimensionMismatchError(
                f"row {r.utterance_id!r} has {r.vector.size} dims, "
                f"row {rows[0].utterance_id!r} has {dim}")
    if gamma_values is None:
        gamma_values = tuple(s / dim for s in RunConfig.svm_gamma_scale)
    splits = loso_splits(rows)
    classes = tuple(sorted({r.label for r in rows}))
    label_code = {label: k for k, label in enumerate(classes)}
    speaker_code = {test: k for k, (_, _, test) in enumerate(splits)}
    x_all = np.stack([r.vector for r in rows])
    y_all = np.array([label_code[r.label] for r in rows])
    spk = np.array([speaker_code[r.speaker_id] for r in rows])

    folds = []
    for _, valid_speaker, test_speaker in splits:
        in_valid = spk == speaker_code[valid_speaker]
        in_test = spk == speaker_code[test_speaker]
        in_train = ~(in_valid | in_test)
        std = standardize_fit(x_all[in_train])
        x_train, x_valid, x_test = (standardize_apply(std, x_all[m])
                                    for m in (in_train, in_valid, in_test))
        best = grid_search((x_train, y_all[in_train]), (x_valid, y_all[in_valid]),
                           c_values, gamma_values)
        # the model's classes are label codes; its warnings name the labels
        model = replace(best.model, classes=tuple(classes[k] for k in best.model.classes))
        cm = code_confusion(y_all[in_test], svm_predict(best.model, x_test), classes)
        folds.append(FoldReport(
            test_speaker=test_speaker, valid_speaker=valid_speaker,
            best_c=model.c, best_gamma=model.gamma,
            accuracy=accuracy(cm), uar=uar(cm), confusion=cm,
            missing_classes=missing_classes(cm),
            convergence_warnings=tuple(model.convergence_warnings)))

    pooled = ConfusionMatrix(classes, sum(f.confusion.counts for f in folds))
    return ExperimentReport(
        feature_kind=feature_kind, config_hash=config_hash, classes=classes,
        folds=tuple(folds),
        mean_accuracy=float(np.mean([f.accuracy for f in folds])),
        mean_uar=float(np.mean([f.uar for f in folds])),
        pooled_confusion=pooled, pooled_accuracy=accuracy(pooled),
        pooled_uar=uar(pooled))


def run_experiment(manifest: list[ManifestRow], feature_kind: str, run_cfg,
                   n_workers: int | None = None) -> ExperimentReport:
    """Extract features for every manifest row, then run the LOSO harness on
    run_cfg's SVM grid."""
    from .features import extract_many

    if not manifest:
        raise TooFewRowsError("experiment needs manifest rows, got none")
    feature_rows, errors = extract_many(manifest, feature_kind, run_cfg,
                                        n_workers=n_workers)
    if errors:
        summary = "; ".join(f"{uid}: {msg}" for uid, msg in errors[:5])
        raise ScatFeatError(f"extraction failed for {len(errors)} rows: {summary}")
    dim = feature_rows[0].vector.shape[0]
    return run_loso(feature_rows, tuple(run_cfg.svm_c),
                    tuple(s / dim for s in run_cfg.svm_gamma_scale),
                    feature_kind=feature_kind,
                    config_hash=feature_config_hash(run_cfg, feature_kind))


def param_sweep(manifest: list[ManifestRow], q_values, t_values, run_cfg,
                n_workers: int | None = None) -> list[tuple[int, int, ExperimentReport]]:
    """run_experiment on scatnet features for every (q, t) cell, q-major.
    Returns one (q, t, report) per cell. Every cell's bank spec is checked
    before any cell extracts."""
    for q in q_values:
        for t in t_values:
            FilterBankSpec(int(q), int(t), run_cfg.n_fft).validate()
    out = []
    for q in q_values:
        for t in t_values:
            cfg = replace(run_cfg, q1=int(q), t=int(t))
            out.append((int(q), int(t),
                        run_experiment(manifest, "scatnet", cfg, n_workers=n_workers)))
    return out


def confusion_to_text(cm: ConfusionMatrix) -> str:
    """Aligned plain-text rendering, rows true / columns predicted."""
    width = max([len(c) for c in cm.classes] + [5])
    head = " " * (width + 2) + " ".join(f"{c:>{width}}" for c in cm.classes)
    lines = [head]
    for i, c in enumerate(cm.classes):
        cells = " ".join(f"{int(v):>{width}}" for v in cm.counts[i])
        lines.append(f"{c:>{width}}  {cells}")
    return "\n".join(lines)


def _json_value(value):
    if isinstance(value, ConfusionMatrix):
        return value.counts.tolist()
    if is_dataclass(value):
        return {f.name: _json_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


def report_to_json_dict(report: ExperimentReport) -> dict:
    """report.json's document: each ExperimentReport field under its own
    name, with each fold a dict of its FoldReport fields. A confusion matrix
    becomes its counts as nested lists of ints, and a tuple a list. The
    keys are the field names, so renaming a field renames its key in
    report.json."""
    return _json_value(report)


def report_to_csv(report: ExperimentReport) -> str:
    """Fold rows plus one aggregate row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["fold", "test_speaker", "valid_speaker", "best_c",
                     "best_gamma", "accuracy", "uar"])
    for k, f in enumerate(report.folds):
        writer.writerow([k, f.test_speaker, f.valid_speaker,
                         f"{f.best_c:.17g}", f"{f.best_gamma:.17g}",
                         f"{f.accuracy:.17g}", f"{f.uar:.17g}"])
    writer.writerow(["aggregate", "", "", "", "",
                     f"{report.mean_accuracy:.17g}", f"{report.mean_uar:.17g}"])
    return buf.getvalue()
