"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 success with SMO
convergence warnings (recorded in the report, and printed to stderr).

evaluate reads at most one config file. Given --config, the config must
give the feature file's config hash, so it states the settings the
features were extracted with, and its svm_c and svm_gamma_scale are the
SVM grid. Without --config the grid is RunConfig's default and the
features' provenance is not checked.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .audio_io import next_pow2
from .classify import (model_to_json, standardize_apply, standardize_fit,
                       svm_train)
from .config import (FEATURE_KINDS, RunConfig, config_to_text,
                     feature_config_hash, load_config)
from .errors import ScatFeatError
from .evaluation import (confusion_to_text, load_manifest, manifest_warnings,
                         param_sweep, report_to_csv, report_to_json_dict,
                         run_loso)
from .features import extract_many, read_feature_file, write_feature_file
from .filterbank import FilterBankSpec, bank_to_csv_rows, build_morlet_bank

USAGE_ERROR, DATA_ERROR, CONVERGENCE_WARNING = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    items = text.split(",")
    if not any(v.strip() for v in items):
        raise argparse.ArgumentTypeError(f"needs at least one integer, got {text!r}")
    if not all(v.strip() for v in items):
        raise argparse.ArgumentTypeError(f"empty item in {text!r}")
    return [int(v) for v in items]


def _load_run_config(path: str | None) -> RunConfig:
    return load_config(path) if path else RunConfig()


def build_parser() -> _Parser:
    parser = _Parser(prog="scatfeat",
                     description="Scattering / MFCC speech features with an "
                                 "RBF-SVM LOSO evaluation harness.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extract", help="extract features into a SCATFEAT v1 file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--feature", choices=FEATURE_KINDS, default="scatnet",
                   help="feature kind (default: scatnet)")
    p.add_argument("--config", default=None, help="key=value or JSON config file")
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="worker threads, at least 1 (default: the CPUs this "
                        "process may run on)")

    p = sub.add_parser("train", help="train one SVM on a feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--out", required=True, help="model JSON path")

    p = sub.add_parser("evaluate", help="LOSO evaluation of a feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--config", default=None,
                   help="config the features were extracted with: checked "
                        "against the file's config hash, and its svm_c and "
                        "svm_gamma_scale are the SVM grid (default: no check, "
                        "the default grid)")
    p.add_argument("--report-dir", required=True)

    p = sub.add_parser("sweep", help="Q x T parameter sweep on scatnet features")
    p.add_argument("--manifest", required=True)
    p.add_argument("--q", type=_int_list, required=True, help="e.g. 1,3,5,8")
    p.add_argument("--t", type=_int_list, required=True,
                   help="e.g. 4096,8192,16384,32768")
    p.add_argument("--config", default=None)
    p.add_argument("--report-dir", required=True)
    p.add_argument("--threads", type=_positive_int, default=None)

    p = sub.add_parser("inspect-filters", help="dump a Morlet bank as CSV")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=_positive_int, required=True,
                   help="signal length in samples, at least 1")
    p.add_argument("--out", required=True)
    return parser


def _check_out_dir(out: str) -> None:
    """Fail on an output path whose directory is missing before any work."""
    if not Path(out).parent.is_dir():
        raise ScatFeatError(f"{out}: its directory does not exist")


def _check_report_dir(report_dir: str) -> None:
    """Fail before any work, making nothing, on a report directory that
    cannot be made: its nearest existing ancestor must be a directory."""
    path = Path(report_dir)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ScatFeatError(f"{report_dir}: {existing} is not a directory")


def _warn(convergence_warnings) -> int:
    for w in convergence_warnings:
        print(f"warning: {w}", file=sys.stderr)
    return CONVERGENCE_WARNING if convergence_warnings else 0


def _cmd_extract(args) -> int:
    _check_out_dir(args.out)
    cfg = _load_run_config(args.config)
    manifest = load_manifest(args.manifest)
    for warning in manifest_warnings(manifest):
        print(f"warning: {warning}", file=sys.stderr)
    rows, errors = extract_many(manifest, args.feature, cfg, n_workers=args.threads)
    config_hash = feature_config_hash(cfg, args.feature)
    if rows:
        write_feature_file(args.out, args.feature, rows, config_hash)
    if errors:
        for uid, msg in errors:
            print(f"error: {uid}: {msg}", file=sys.stderr)
        return DATA_ERROR
    print(f"wrote {args.out} (kind={args.feature}, config_hash={config_hash})")
    return 0


def _cmd_train(args) -> int:
    _check_out_dir(args.out)
    kind, config_hash, rows = read_feature_file(args.features)
    x = np.stack([r.vector for r in rows])
    y = np.array([r.label for r in rows])
    std = standardize_fit(x)
    model = svm_train(standardize_apply(std, x), y, args.c, args.gamma,
                      standardizer=std)
    Path(args.out).write_text(model_to_json(model) + "\n")
    print(f"wrote {args.out} (trained on {len(rows)} rows of {kind}, "
          f"config_hash={config_hash})")
    return _warn(model.convergence_warnings)


def _write_report(report, report_dir: Path) -> None:
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / "report.json").write_text(
        json.dumps(report_to_json_dict(report), sort_keys=True, indent=2) + "\n")
    (report_dir / "summary.csv").write_text(report_to_csv(report))
    blocks = []
    for f in report.folds:
        blocks.append(f"test speaker {f.test_speaker} "
                      f"(acc={f.accuracy:.4f}, uar={f.uar:.4f})")
        blocks.append(confusion_to_text(f.confusion))
        blocks.append("")
    blocks.append(f"pooled (acc={report.pooled_accuracy:.4f}, "
                  f"uar={report.pooled_uar:.4f})")
    blocks.append(confusion_to_text(report.pooled_confusion))
    (report_dir / "confusions.txt").write_text("\n".join(blocks) + "\n")


def _cmd_evaluate(args) -> int:
    _check_report_dir(args.report_dir)
    kind, file_hash, rows = read_feature_file(args.features)
    cfg = _load_run_config(args.config)
    if args.config:
        expected = feature_config_hash(cfg, kind)
        if expected != file_hash:
            raise ScatFeatError(
                f"config hash mismatch: file has {file_hash}, config gives "
                f"{expected}")
    dim = rows[0].vector.shape[0]
    report = run_loso(rows, tuple(cfg.svm_c),
                      tuple(s / dim for s in cfg.svm_gamma_scale),
                      feature_kind=kind, config_hash=file_hash)
    _write_report(report, Path(args.report_dir))
    print(f"mean accuracy {report.mean_accuracy:.4f}, "
          f"mean UAR {report.mean_uar:.4f} over {len(report.folds)} folds")
    return _warn(report.convergence_warnings)


def _cmd_sweep(args) -> int:
    _check_report_dir(args.report_dir)
    cfg = _load_run_config(args.config)
    manifest = load_manifest(args.manifest)
    cells = param_sweep(manifest, args.q, args.t, cfg,
                        n_workers=args.threads)
    report_dir = Path(args.report_dir)  # made only once there are results
    report_dir.mkdir(parents=True, exist_ok=True)
    lines = ["q,t,mean_accuracy,mean_uar"]
    for q, t, report in cells:
        lines.append(f"{q},{t},{report.mean_accuracy:.17g},{report.mean_uar:.17g}")
    (report_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    (report_dir / "sweep_config.txt").write_text(config_to_text(cfg))
    print(f"wrote {report_dir / 'sweep.csv'} ({len(cells)} cells)")
    return 0


def _cmd_inspect_filters(args) -> int:
    _check_out_dir(args.out)
    bank = build_morlet_bank(FilterBankSpec(args.q, args.t, next_pow2(args.n)))
    rows = bank_to_csv_rows(bank)
    Path(args.out).write_text("\n".join(rows) + "\n")
    print(f"wrote {args.out} ({len(bank.filters)} filters)")
    return 0


_COMMANDS = {
    "extract": _cmd_extract,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "inspect-filters": _cmd_inspect_filters,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ScatFeatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
