"""Leave-one-speaker-out evaluation: folds, metrics, sweeps, reports."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .classify import (grid_search, standardize_apply, standardize_fit,
                       svm_axis, svm_predict)
from .config import RunConfig
from .errors import (EmptyMatrixError, ScatFeatError, TooFewRowsError,
                     TooFewSpeakersError, UnknownLabelError)


@dataclass(frozen=True)
class ManifestRow:
    utterance_id: str
    path: str
    speaker_id: str
    label: str


def load_manifest(path) -> list[ManifestRow]:
    """Read a manifest CSV with header utterance_id,path,speaker_id,label."""
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
            rows.append(ManifestRow(*r))
    if not rows:
        raise ScatFeatError(f"{path}: manifest has no rows")
    ids = [r.utterance_id for r in rows]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
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
    feature dimension.
    """
    if not rows:
        raise TooFewRowsError("LOSO evaluation needs feature rows, got none")
    if gamma_values is None:
        dim = rows[0].vector.shape[0]
        gamma_values = tuple(s / dim for s in RunConfig.svm_gamma_scale)
    classes = tuple(sorted({r.label for r in rows}))
    x_all = np.stack([r.vector for r in rows])
    y_all = np.array([r.label for r in rows])
    spk = np.array([r.speaker_id for r in rows])

    folds = []
    for train_speakers, valid_speaker, test_speaker in loso_splits(rows):
        in_train = np.isin(spk, train_speakers)
        in_valid = spk == valid_speaker
        in_test = spk == test_speaker
        std = standardize_fit(x_all[in_train])
        x_train, x_valid, x_test = (standardize_apply(std, x_all[m])
                                    for m in (in_train, in_valid, in_test))
        best = grid_search((x_train, y_all[in_train]), (x_valid, y_all[in_valid]),
                           c_values, gamma_values)
        pred = svm_predict(best.model, x_test)
        cm = confusion(list(y_all[in_test]), list(pred), classes)
        folds.append(FoldReport(
            test_speaker=test_speaker, valid_speaker=valid_speaker,
            best_c=best.best_c, best_gamma=best.best_gamma,
            accuracy=accuracy(cm), uar=uar(cm), confusion=cm,
            missing_classes=missing_classes(cm),
            convergence_warnings=tuple(best.model.convergence_warnings)))

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
    from .features import extract_many, feature_config_hash

    if not manifest:
        raise TooFewRowsError("experiment needs manifest rows, got none")
    # a grid that cannot train fails before any utterance is transformed:
    # each gamma is a scale over dim >= 1
    svm_axis("C", run_cfg.svm_c)
    svm_axis("gamma scale", run_cfg.svm_gamma_scale)
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


@dataclass(frozen=True)
class SweepRow:
    q: int
    t: int
    mean_accuracy: float
    mean_uar: float


def param_sweep(manifest: list[ManifestRow], q_values, t_values,
                run_cfg, n_workers: int | None = None) -> list[SweepRow]:
    """run_experiment on scatnet features for every (q, t) cell."""
    out = []
    for t in t_values:
        if t & (t - 1) or t > run_cfg.n_fft:
            raise ScatFeatError(
                f"t={t} must be a power of two <= next_pow2(n)={run_cfg.n_fft}")
    for q in q_values:
        for t in t_values:
            cfg = replace(run_cfg, q1=int(q), t=int(t))
            report = run_experiment(manifest, "scatnet", cfg, n_workers=n_workers)
            out.append(SweepRow(int(q), int(t), report.mean_accuracy,
                                report.mean_uar))
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


def report_to_json_dict(report: ExperimentReport) -> dict:
    return {
        "feature_kind": report.feature_kind,
        "config_hash": report.config_hash,
        "classes": list(report.classes),
        "folds": [{
            "test_speaker": f.test_speaker,
            "valid_speaker": f.valid_speaker,
            "best_c": f.best_c,
            "best_gamma": f.best_gamma,
            "accuracy": f.accuracy,
            "uar": f.uar,
            "confusion": f.confusion.counts.tolist(),
            "missing_classes": list(f.missing_classes),
            "convergence_warnings": list(f.convergence_warnings),
        } for f in report.folds],
        "mean_accuracy": report.mean_accuracy,
        "mean_uar": report.mean_uar,
        "pooled_confusion": report.pooled_confusion.counts.tolist(),
        "pooled_accuracy": report.pooled_accuracy,
        "pooled_uar": report.pooled_uar,
    }


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
