"""scatfeat benchmark: one workload per run, end-to-end or traced.

    python3 scatbench/run.py --workload loso-emodb-shape --seed 1 --seconds 10 --trace 0

Run from the repository root; scatfeat is imported from ./src. The run
generates its inputs from --seed, builds the filter banks, then repeats
whole rounds of the workload until --seconds have passed (at least one
round). A round extracts every requested feature kind of the workload's
corpus with features.extract_many, writes each kind's feature file, then
reads feature files back and evaluates them with run_loso on the default
grid, as `scatfeat extract` and `scatfeat evaluate` do. On
layerwise-mixed-rate, whose LOSO takes ~0.07 s, the evaluation is then
repeated for LOSO_SPAN_S seconds, in blocks between the set-up probes.
Finally it checks the outputs against properties of the method and the
references in reference.py.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, --trace 1
the per-layer metrics, from spans recorded around scatfeat's functions
(spans.py). The last stdout line is the JSON result; everything else goes to
stderr. See README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import reference
from spans import Tracer, resolve, replace_everywhere, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
UAR_FLOOR = 0.375  # EmoDB-shaped pooled UAR floor, derived in README.md
# On a shared 2-vCPU VM single-threaded code ran up to 1.6x slower for
# stretches of 10-40 s, so a short LOSO is timed over a LOSO_SPAN_S span and
# loso_s is a low quantile of the timings: the cost outside slow stretches,
# which repeats from run to run where a shorter span or a median follows
# the stretch (README.md, "Machine drift").
LOSO_SPAN_S = 35.0
LOSO_BLOCKS = 1 + SETUP_PROBES  # after the rounds and after each set-up probe
LOSO_QUANTILE = 0.1

WORKLOADS = ("loso-emodb-shape", "layerwise-mixed-rate")
LAYER_KINDS = ("scatnet", "f-scatnet", "scat-layer1", "scat-layer2", "mfcc")


def import_scatfeat():
    """Import scatfeat from ./src, and from nowhere else."""
    if not (SRC / "scatfeat" / "__init__.py").is_file():
        raise SystemExit(f"error: no scatfeat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import scatfeat
    import scatfeat.synthetic  # noqa: F401  (not imported by the package)
    if Path(scatfeat.__file__).resolve().parent != SRC / "scatfeat":
        raise SystemExit(f"error: imported scatfeat from {scatfeat.__file__}")
    return scatfeat


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Workload:
    """What a round extracts and what it evaluates."""
    name: str
    kinds: tuple
    manifest: list
    carriers_hz: dict
    mod_rates_hz: dict | None  # checked on order 2 when given
    evaluate: list = field(default_factory=list)  # files evaluated instead of the extracted ones


def make_workload(sf, name: str, seed: int, work: Path) -> Workload:
    synthetic = sf.synthetic
    if name == "loso-emodb-shape":
        manifest = synthetic.write_am_dataset(work / "am", utterances_per_cell=1, seed=seed)
        emodb = inputs.write_emodb_shaped_file(work / "emodb-shape.csv", seed)
        return Workload(name, ("scatnet",), sf.load_manifest(manifest),
                        synthetic.DEFAULT_CARRIERS_HZ, synthetic.DEFAULT_MOD_RATES_HZ,
                        [emodb])
    if name == "layerwise-mixed-rate":
        manifest = inputs.write_mixed_corpus(work / "mixed", seed, synthetic.am_utterance)
        return Workload(name, LAYER_KINDS, sf.load_manifest(manifest),
                        inputs.MIXED_CARRIERS_HZ, None)
    raise SystemExit(f"error: unknown workload {name!r}")


def build_banks(sf, kinds, cfg) -> list:
    """Build every filter bank the kinds use (the in-process set-up);
    returns their (q, t, n_fft) specs in build order."""
    next_pow2 = sf.scattering.next_pow2
    specs = []
    if any(k != "mfcc" for k in kinds):
        n_fft = next_pow2(cfg.n)
        specs += [(cfg.q1, cfg.t, n_fft), (cfg.q2, cfg.t, n_fft)]
    for spec in specs:
        sf.filterbank.cached_bank(*spec)
    if "f-scatnet" in kinds:
        n_geo = len(sf.filterbank.cached_bank(*specs[0]).geometric_indices())
        spec = (1, cfg.f_wavelet_len, next_pow2(max(n_geo, cfg.f_wavelet_len)))
        sf.filterbank.cached_bank(*spec)
        specs.append(spec)
    return specs


def time_setup(specs, between) -> float:
    """Median set-up seconds over fresh processes (setup_probe.py); calls
    `between()` after each probe."""
    args = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    args += [",".join(map(str, s)) for s in specs]
    times = []
    for _ in range(SETUP_PROBES):
        times.append(float(subprocess.run(args, check=True, capture_output=True,
                                          text=True, cwd=ROOT, timeout=120).stdout))
        between()
    return statistics.median(times)


class SolveChecker:
    """Wraps classify.smo_solve: recomputes each solve's KKT residual from
    the returned alpha and keeps the worst, with the seconds it spent so
    they can be taken out of the timed region."""

    def __init__(self):
        self.worst = 0.0
        self.seconds = 0.0
        self.calls = 0
        self.iters = 0

    def wrap(self, solve):
        def checked(kernel, y, c, *args, **kwargs):
            result = solve(kernel, y, c, *args, **kwargs)
            start = time.perf_counter()
            residual = reference.kkt_residual(np.asarray(kernel, dtype=np.float64),
                                              np.asarray(y, dtype=np.float64),
                                              result[0], c)
            self.worst = max(self.worst, residual)
            self.calls += 1
            self.iters += int(result[4])
            self.seconds += time.perf_counter() - start
            return result
        return checked

    def install(self):
        solve = resolve("scatfeat", "classify.smo_solve")
        return replace_everywhere("scatfeat", {solve: self.wrap(solve)})


@dataclass
class Round:
    extracted: dict  # kind -> list of FeatureRow
    extract_s: float
    loso_s: float
    reports: list
    failed: set
    files: list  # the feature files evaluated


def evaluate(sf, files, checker: SolveChecker) -> tuple[float, list]:
    """Read each feature file and evaluate it by LOSO on the default grid;
    returns the seconds, without the KKT checks, and the reports."""
    grid = sf.RunConfig()
    start, check_s = time.perf_counter(), checker.seconds
    reports = []
    for path in files:
        kind, file_hash, rows = sf.features.read_feature_file(path)
        dim = rows[0].vector.shape[0]
        reports.append(sf.evaluation.run_loso(
            rows, tuple(grid.svm_c), tuple(s / dim for s in grid.svm_gamma_scale),
            feature_kind=kind, config_hash=file_hash))
    return time.perf_counter() - start - (checker.seconds - check_s), reports


def run_round(sf, wl: Workload, cfg, n_workers: int, work: Path,
              checker: SolveChecker) -> Round:
    extracted, extract_s, failed, written = {}, 0.0, set(), []
    for kind in wl.kinds:
        start = time.perf_counter()
        rows, errors = sf.features.extract_many(wl.manifest, kind, cfg, n_workers=n_workers)
        extract_s += time.perf_counter() - start
        failed.update(uid for uid, _ in errors)
        extracted[kind] = rows
        path = work / f"features-{kind}.csv"
        sf.features.write_feature_file(path, kind, rows,
                                       sf.config.feature_config_hash(cfg, kind))
        written.append(path)

    files = wl.evaluate or written
    loso_s, reports = evaluate(sf, files, checker)
    return Round(extracted, extract_s, loso_s, reports, failed, files)


class LosoSampler:
    """Repeats a round's evaluation over LOSO_SPAN_S seconds from its
    creation: block k (of LOSO_BLOCKS) runs whole evaluations, at least one,
    until k/LOSO_BLOCKS of the span has passed. Keeps each timing and a
    digest of each evaluation's reports. A no-op on loso-emodb-shape, whose
    one LOSO per round takes ~35 s."""

    def __init__(self, sf, wl: Workload, rnd: Round, checker: SolveChecker):
        self.sf, self.files, self.checker = sf, rnd.files, checker
        self.active = not wl.evaluate
        self.start = time.perf_counter()
        self.blocks = 0
        self.timings = []
        self.digests = set()

    def block(self) -> None:
        if not self.active:
            return
        self.blocks += 1
        end = self.start + LOSO_SPAN_S * self.blocks / LOSO_BLOCKS
        while True:
            seconds, reports = evaluate(self.sf, self.files, self.checker)
            self.timings.append(seconds)
            self.digests.add(reports_digest(self.sf, reports))
            if time.perf_counter() >= end:
                return


def n_procs() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------- checks

def check_extraction(sf, wl: Workload, cfg, first: Round, work: Path, seed: int,
                     problems: list) -> None:
    bank1 = sf.filterbank.cached_bank(cfg.q1, cfg.t, sf.scattering.next_pow2(cfg.n))
    bank2 = sf.filterbank.cached_bank(cfg.q2, cfg.t, sf.scattering.next_pow2(cfg.n))
    paths = reference.scattering_paths(bank1, bank2)
    n_low = 1 + len(bank1.filters)  # orders 0 and 1
    expected = {"scatnet": len(paths), "scat-layer1": n_low,
                "scat-layer2": len(paths) - n_low, "mfcc": 2 * cfg.n_coeffs}
    for kind, rows in first.extracted.items():
        if len(rows) != len(wl.manifest):
            problems.append(f"{kind}: {len(rows)} of {len(wl.manifest)} rows extracted")
        for r in rows:
            if not np.all(np.isfinite(r.vector)):
                problems.append(f"{kind} {r.utterance_id}: non-finite entries")
            if kind in expected and r.vector.shape != (expected[kind],):
                problems.append(f"{kind} {r.utterance_id}: dim {r.vector.shape}")
        _, _, back = sf.features.read_feature_file(work / f"features-{kind}.csv")
        if [(b.utterance_id, b.speaker_id, b.label) for b in back] != \
                [(r.utterance_id, r.speaker_id, r.label) for r in rows] or \
                any(not np.array_equal(b.vector, r.vector) for b, r in zip(back, rows)):
            problems.append(f"{kind}: feature file does not read back equal")

    scat = {r.utterance_id: r for r in first.extracted["scatnet"]}
    for uid, r in scat.items():
        want = reference.peak_filter(bank1, wl.carriers_hz[r.speaker_id],
                                     cfg.sample_rate_hz)
        got = int(np.argmax(r.vector[1:n_low]))
        if got != want:
            problems.append(f"{uid}: order-1 peak at filter {got}, carrier filter {want}")
        if wl.mod_rates_hz is not None:
            under = [k for k, p in enumerate(paths) if p[0] == 2 and p[1] == want]
            got2 = paths[under[int(np.argmax(r.vector[under]))]][2]
            want2 = reference.peak_filter(bank2, wl.mod_rates_hz[r.label],
                                          cfg.sample_rate_hz)
            if abs(got2 - want2) > 1:
                problems.append(f"{uid}: order-2 peak at filter {got2}, "
                                f"modulation filter {want2}")

    by_id = {r.utterance_id: r for r in wl.manifest}
    for kind, rows in first.extracted.items():
        if kind == "scatnet":
            continue
        for r in rows:
            full = scat[r.utterance_id].vector
            part = {"scat-layer1": full[:n_low], "scat-layer2": full[n_low:],
                    "f-scatnet": full}.get(kind)
            if part is not None and not np.array_equal(r.vector[:part.size], part):
                problems.append(f"{kind} {r.utterance_id}: differs from its scatnet slice")
            if kind == "mfcc":
                w = sf.audio_io.resample(sf.audio_io.load_wav(by_id[r.utterance_id].path),
                                         cfg.sample_rate_hz)
                ref = reference.mfcc_reference(sf.audio_io.fix_length(w, cfg.n).samples)
                err = float(np.max(np.abs(r.vector - ref)))
                if err > reference.MFCC_TOL:
                    problems.append(f"mfcc {r.utterance_id}: {err:.3g} from reference")

    if wl.name == "loso-emodb-shape":
        rng = np.random.default_rng([seed, 7])
        sample = sorted(rng.choice(sorted(by_id), size=2, replace=False))
        rows = [by_id[u] for u in sample]
        again, _ = sf.features.extract_many(rows, "scatnet", cfg, n_workers=1)
        for row, r in zip(rows, again):
            if not np.array_equal(r.vector, scat[row.utterance_id].vector):
                problems.append(f"{row.utterance_id}: differs at n_workers=1")
            w = sf.audio_io.load_wav(row.path)
            ref = reference.scatnet_reference(w.samples, cfg.n, cfg.t, bank1, bank2,
                                              cfg.log_eps)
            err = float(np.max(np.abs(scat[row.utterance_id].vector - ref)))
            print(f"scattering reference: {row.utterance_id} max |diff| {err:.3g}",
                  file=sys.stderr)
            if err > reference.SCATTERING_LOG_TOL:
                problems.append(f"{row.utterance_id}: {err:.3g} from the reference")


def check_reports(sf, wl: Workload, first: Round, checker: SolveChecker,
                  problems: list) -> None:
    sources = wl.evaluate or [None] * len(first.reports)
    for source, report in zip(sources, first.reports):
        if source is None:
            rows = first.extracted[report.feature_kind]
        else:
            rows = sf.features.read_feature_file(source)[2]
        classes = list(report.classes)
        want = np.array([sum(r.label == c for r in rows) for c in classes])
        pooled = report.pooled_confusion.counts
        if pooled.sum() != len(rows) or not np.array_equal(pooled.sum(axis=1), want):
            problems.append(f"{report.feature_kind}: pooled confusion rows {pooled.sum(axis=1)}")
        if abs(reference.uar_from_counts(pooled) - report.pooled_uar) > 1e-12:
            problems.append(f"{report.feature_kind}: pooled UAR does not match confusion")
        for fold in report.folds:
            mine = [r for r in rows if r.speaker_id == fold.test_speaker]
            fold_want = [sum(r.label == c for r in mine) for c in classes]
            if list(fold.confusion.counts.sum(axis=1)) != fold_want:
                problems.append(f"fold {fold.test_speaker}: confusion rows differ")
            if abs(reference.uar_from_counts(fold.confusion.counts) - fold.uar) > 1e-12:
                problems.append(f"fold {fold.test_speaker}: UAR does not match confusion")
        if wl.name == "loso-emodb-shape":
            emodb = [inputs.EMODB_CLASS_COUNTS[c] for c in classes]
            if list(pooled.sum(axis=1)) != emodb:
                problems.append(f"pooled class counts {pooled.sum(axis=1)} != EmoDB")
            if report.pooled_uar < UAR_FLOOR:
                problems.append(f"pooled UAR {report.pooled_uar:.3f} < {UAR_FLOOR}")
            print(f"pooled UAR {report.pooled_uar:.4f}", file=sys.stderr)
    if checker.worst > reference.KKT_BOUND:
        problems.append(f"KKT residual {checker.worst:.3g} > {reference.KKT_BOUND}")


def reports_digest(sf, reports) -> str:
    h = hashlib.sha256()
    for report in reports:
        doc = sf.evaluation.report_to_json_dict(report)
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


def digest(sf, rnd: Round) -> str:
    """Hash of every extracted vector and every report of a round."""
    h = hashlib.sha256()
    for kind in sorted(rnd.extracted):
        for r in rnd.extracted[kind]:
            h.update(f"{kind},{r.utterance_id},{r.speaker_id},{r.label}".encode())
            h.update(np.ascontiguousarray(r.vector).tobytes())
    h.update(reports_digest(sf, rnd.reports).encode())
    return h.hexdigest()


# --------------------------------------------------------------- metrics

def end_to_end_metrics(setup_s: float, rounds: list, loso_timings: list,
                       peak_rss_kb: float) -> dict:
    """loso_s is the LOSO_QUANTILE quantile of the rounds' and the sampled
    evaluations' timings (on loso-emodb-shape, of one timing per round)."""
    utterances = sum(len(next(iter(r.extracted.values()))) for r in rounds)
    loso = [r.loso_s for r in rounds] + list(loso_timings)
    return {
        "setup_s": setup_s,
        "extract_utt_per_s": utterances / sum(r.extract_s for r in rounds),
        "loso_s": float(np.quantile(loso, LOSO_QUANTILE)),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}}


def per_layer_metrics(names, setup_spans, window_spans, n_rounds: int,
                      n_workers: int) -> dict:
    """Metric "<module>.<function>.<stat>": filterbank metrics cover the
    in-process set-up, every other one is per round of the window."""
    setup, window = summarize(setup_spans), summarize(window_spans)
    out = {}
    for name in names:
        qual, _, stat = name.rpartition(".")
        if stat == "busy_ratio":
            busy = window.get("features.extract_vector", EMPTY)["s"]
            wall = window.get("features.extract_many", EMPTY)["s"]
            out[name] = busy / (wall * n_workers)
            continue
        in_setup = qual.startswith("filterbank.")
        entry = (setup if in_setup else window).get(qual, EMPTY)
        value = entry[stat] if stat in ("calls", "s", "self_s") else entry["counts"].get(stat, 0)
        out[name] = value / (1 if in_setup else n_rounds)
    return out


def traced_functions(names) -> list:
    return sorted({name.rpartition(".")[0] for name in names})


def operations(wl: Workload, rounds: list) -> tuple[int, int]:
    """(attempted, failed): utterances extracted, plus the EmoDB-shaped
    LOSO's folds on loso-emodb-shape; failed utterances."""
    folds = sum(len(rep.folds) for r in rounds for rep in r.reports) if wl.evaluate else 0
    return len(wl.manifest) * len(rounds) + folds, sum(len(r.failed) for r in rounds)


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sf = import_scatfeat()
    spec = load_spec()
    per_layer_names = [m["name"] for m in spec["per_layer"]]
    cfg = sf.RunConfig()
    n_workers = n_procs()
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = make_workload(sf, args.workload, args.seed, work)
        tracer = Tracer({"classify.smo_solve": lambda r: {"iters": r[4]}})
        untrace = (tracer.install("scatfeat", traced_functions(per_layer_names))
                   if args.trace else (lambda: None))
        checker = SolveChecker()
        uncheck = checker.install()
        try:
            specs = build_banks(sf, wl.kinds, cfg)
            window_start = time.perf_counter()
            rounds = []
            while not rounds or time.perf_counter() - window_start < args.seconds:
                rounds.append(run_round(sf, wl, cfg, n_workers, work, checker))
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        finally:
            uncheck()
            untrace()

        # Spans cover the rounds only; every evaluation is KKT-checked.
        problems = []
        uncheck = checker.install()
        try:
            sampler = LosoSampler(sf, wl, rounds[0], checker)
            sampler.block()
            setup_s = time_setup(specs, between=sampler.block)
            check_extraction(sf, wl, cfg, rounds[0], work, args.seed, problems)
        finally:
            uncheck()

        check_reports(sf, wl, rounds[0], checker, problems)
        if len({digest(sf, r) for r in rounds}) != 1:
            problems.append("rounds differ in their outputs")
        if sampler.digests - {reports_digest(sf, rounds[0].reports)}:
            problems.append("repeated evaluations differ in their reports")

        e2e = end_to_end_metrics(setup_s, rounds, sampler.timings, peak_rss_kb)
        print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
              f"workers {n_workers} digest {digest(sf, rounds[0])}", file=sys.stderr)
        evaluations = len(rounds) + len(sampler.timings)
        print(f"smo_solve calls {checker.calls // evaluations} iters "
              f"{checker.iters // evaluations} per evaluation, {evaluations} "
              f"evaluations, worst KKT residual {checker.worst:.3g}", file=sys.stderr)
        print("end-to-end " + json.dumps(e2e), file=sys.stderr)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)

        if args.trace:
            setup_spans = [s for s in tracer.spans if s.start < window_start]
            window_spans = [s for s in tracer.spans if s.start >= window_start]
            values = per_layer_metrics(per_layer_names, setup_spans, window_spans,
                                       len(rounds), n_workers)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            tracer.write_jsonl(results / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            values = e2e
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        attempted, failed = operations(wl, rounds)
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
