"""BENCHMARK.json is well formed and names every metric the command prints."""

import re

import pytest

from spans import Span, resolve

import run

SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_has_exactly_the_expected_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_end_to_end_metrics_are_exactly_the_named_ones():
    rnd = run.Round({"scatnet": [object()] * 3}, 2.0, 0.5, [], set(), [])
    values = run.end_to_end_metrics(1.5, [rnd, rnd], [], 2048.0)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert values["extract_utt_per_s"] == 1.5 and values["peak_rss_mb"] == 2.0
    assert values["loso_s"] == 0.5


def test_loso_s_is_the_low_quantile_of_every_timing():
    rnd = run.Round({"scatnet": [object()]}, 1.0, 0.9, [], set(), [])
    sampled = [0.1 * k for k in range(1, 10)]
    values = run.end_to_end_metrics(1.0, [rnd], sampled, 1024.0)
    assert values["loso_s"] == pytest.approx(0.19)


def test_per_layer_metrics_are_exactly_the_named_ones():
    names = [m["name"] for m in SPEC["per_layer"]]
    spans = [Span(1, "features.extract_many", None, 0.0, 4.0, 0),
             Span(2, "features.extract_vector", 1, 0.0, 4.0, 1),
             Span(3, "features.extract_vector", 1, 0.0, 2.0, 2),
             Span(4, "classify.smo_solve", None, 5.0, 6.0, 0, {"iters": 40})]
    setup = [Span(5, "filterbank.build_morlet_bank", None, -1.0, -0.5, 0)]
    values = run.per_layer_metrics(names, setup, spans, n_rounds=2, n_workers=2)
    assert set(values) == set(names)
    assert values["features.extract_many.busy_ratio"] == 0.75
    assert values["classify.smo_solve.iters"] == 20
    assert values["filterbank.build_morlet_bank.calls"] == 1


@pytest.mark.parametrize("qualname", run.traced_functions(
    m["name"] for m in SPEC["per_layer"]))
def test_every_traced_name_is_a_scatfeat_function(qualname):
    run.import_scatfeat()
    assert callable(resolve("scatfeat", qualname))
