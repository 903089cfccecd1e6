"""Span wrappers: results unchanged, spans well formed, outputs identical
traced and untraced."""

import json

import numpy as np
import pytest

import scatfeat
from scatfeat import evaluation, features, scattering, synthetic
from scatfeat.evaluation import FeatureRow, ManifestRow
from spans import Span, Tracer, covered, summarize

import run

SMALL = scatfeat.RunConfig(n=4096, t=512)


def test_wrapper_returns_the_result_object_and_records_a_span():
    tracer = Tracer()
    payload = {"x": [1, 2]}
    traced = tracer.wrap("m.f", lambda a, b=0: (payload, a + b))
    out = traced(2, b=3)
    assert out[0] is payload and out[1] == 5
    [span] = tracer.spans
    assert span.name == "m.f" and span.parent is None and span.end >= span.start


def test_wrapper_propagates_exceptions_and_still_records_the_span():
    tracer = Tracer()

    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError):
        tracer.wrap("m.boom", boom)()
    assert [s.name for s in tracer.spans] == ["m.boom"]


def test_nested_spans_get_parents_and_counts():
    tracer = Tracer({"m.inner": lambda r: {"iters": r}})
    inner = tracer.wrap("m.inner", lambda: 7)
    outer = tracer.wrap("m.outer", lambda: inner() + inner())
    assert outer() == 14
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    [top] = by_name["m.outer"]
    assert all(s.parent == top.id for s in by_name["m.inner"])
    summary = summarize(tracer.spans)
    assert summary["m.inner"]["calls"] == 2
    assert summary["m.inner"]["counts"]["iters"] == 14


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [Span(1, "p", None, 0.0, 10.0, 0),
             Span(2, "c", 1, 1.0, 4.0, 0), Span(3, "c", 1, 3.0, 6.0, 1),
             Span(4, "c", 1, 8.0, 12.0, 0)]
    assert covered([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0
    summary = summarize(spans)
    assert summary["p"]["self_s"] == 3.0
    assert summary["c"]["s"] == 10.0


def test_install_wraps_every_imported_name_and_undo_restores():
    original = scattering.time_scattering
    assert features.time_scattering is original
    tracer = Tracer()
    undo = tracer.install("scatfeat", ["scattering.time_scattering"])
    try:
        assert scattering.time_scattering is not original
        assert features.time_scattering is scattering.time_scattering
        assert scatfeat.time_scattering is scattering.time_scattering
    finally:
        undo()
    assert scattering.time_scattering is original
    assert features.time_scattering is original
    assert scatfeat.time_scattering is original


def _corpus(tmp_path):
    rows = []
    for k, (carrier, rate) in enumerate([(600.0, 4.0), (2400.0, 64.0)]):
        x = synthetic.am_utterance(np.random.default_rng(k), carrier, rate, 4096)
        path = tmp_path / f"u{k}.wav"
        synthetic.write_wav_pcm16(path, x, 16000)
        rows.append(ManifestRow(f"u{k}", str(path), f"s{k}", f"c{k}"))
    return rows


def _all_functions():
    return run.traced_functions(m["name"] for m in run.load_spec()["per_layer"])


@pytest.mark.parametrize("kind", ["scatnet", "mfcc", "scat-layer2"])
def test_extracted_vectors_are_bit_identical_traced_and_untraced(tmp_path, kind):
    manifest = _corpus(tmp_path)
    plain, _ = features.extract_many(manifest, kind, SMALL, n_workers=2)
    tracer = Tracer()
    undo = tracer.install("scatfeat", _all_functions())
    try:
        traced, _ = features.extract_many(manifest, kind, SMALL, n_workers=2)
    finally:
        undo()
    assert tracer.spans
    for a, b in zip(plain, traced):
        assert a.vector.tobytes() == b.vector.tobytes()


def test_loso_report_is_bit_identical_traced_and_untraced():
    rng = np.random.default_rng(3)
    rows = [FeatureRow(f"{s}_{c}_{k}", s, c, rng.standard_normal(6) + (c == "b"))
            for s in ("s1", "s2", "s3") for c in ("a", "b") for k in range(3)]

    def report():
        return json.dumps(evaluation.report_to_json_dict(evaluation.run_loso(rows)),
                          sort_keys=True)

    plain = report()
    tracer = Tracer({"classify.smo_solve": lambda r: {"iters": r[4]}})
    undo = tracer.install("scatfeat", _all_functions())
    checker = run.SolveChecker()
    uncheck = checker.install()
    try:
        traced = report()
    finally:
        uncheck()
        undo()
    assert traced == plain
    assert checker.calls == summarize(tracer.spans)["classify.smo_solve"]["calls"] > 0
    assert checker.worst <= 1e-3
