import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatfeat.classify
from scatfeat.classify import (standardize_apply, standardize_fit, svm_predict,
                               svm_train)
from scatfeat.config import RunConfig
from scatfeat.errors import (DimensionMismatchError, EmptyMatrixError,
                             NonFiniteFeatureError, ScatFeatError,
                             TooFewRowsError, TooFewSpeakersError,
                             UnknownLabelError)
from scatfeat.evaluation import (ConfusionMatrix, ExperimentReport,
                                 FeatureRow, FoldReport, ManifestRow,
                                 accuracy, confusion, confusion_to_text,
                                 load_manifest, loso_splits,
                                 manifest_warnings, missing_classes,
                                 report_to_csv, report_to_json_dict,
                                 run_experiment, run_loso, uar)


def rows_for(speakers):
    return [ManifestRow(f"u{i}", f"{s}.wav", s, "x") for i, s in enumerate(speakers)]


class TestLosoSplits:
    def test_three_speakers_cyclic(self):
        folds = loso_splits(rows_for(["s1", "s2", "s3"]))
        assert folds == [(("s3",), "s2", "s1"),
                         (("s1",), "s3", "s2"),
                         (("s2",), "s1", "s3")]

    def test_ten_speakers(self):
        speakers = [f"s{i:02d}" for i in range(10)]
        folds = loso_splits(rows_for(speakers))
        assert len(folds) == 10
        for train, valid, test in folds:
            assert len(train) == 8
            assert set(train) | {valid, test} == set(speakers)
            assert valid != test and test not in train and valid not in train
        assert [f[2] for f in folds] == speakers  # tests partition the set

    def test_two_speakers_rejected(self):
        with pytest.raises(TooFewSpeakersError):
            loso_splits(rows_for(["s1", "s2"]))


class TestConfusion:
    def test_perfect_diagonal(self):
        cm = confusion(["a"] * 10 + ["b"] * 10, ["a"] * 10 + ["b"] * 10, ["a", "b"])
        assert np.array_equal(cm.counts, [[10, 0], [0, 10]])
        assert uar(cm) == 1.0 and accuracy(cm) == 1.0

    def test_all_predicted_first_class(self):
        cm = confusion(["a", "b", "b"], ["a", "a", "a"], ["a", "b"])
        assert np.array_equal(cm.counts, [[1, 0], [2, 0]])

    def test_empty_inputs_zero_matrix(self):
        cm = confusion([], [], ["a", "b"])
        assert np.array_equal(cm.counts, np.zeros((2, 2)))
        with pytest.raises(EmptyMatrixError):
            uar(cm)
        with pytest.raises(EmptyMatrixError):
            accuracy(cm)

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            confusion(["z"], ["a"], ["a", "b"])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion(["a"], [], ["a"])


class TestMetrics:
    def test_uar_and_accuracy_exact(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[8, 2], [4, 6]]))
        assert uar(cm) == pytest.approx(0.7, abs=0)
        assert accuracy(cm) == pytest.approx(0.7, abs=0)

    def test_uar_invariant_to_row_scaling(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[8, 2], [40, 60]]))
        assert uar(cm) == pytest.approx(0.7, abs=0)
        assert accuracy(cm) == pytest.approx(68 / 110)

    @given(scale=st.integers(1, 50), row=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_uar_row_scaling_property(self, scale, row):
        base = np.array([[5, 1, 0], [2, 6, 2], [1, 1, 8]], dtype=np.int64)
        scaled = base.copy()
        scaled[row] *= scale
        classes = ("a", "b", "c")
        assert uar(ConfusionMatrix(classes, scaled)) == \
            uar(ConfusionMatrix(classes, base))

    def test_empty_row_excluded_and_flagged(self):
        cm = ConfusionMatrix(("a", "b", "c"), np.array([[4, 1, 0],
                                                        [0, 0, 0],
                                                        [1, 0, 9]]))
        assert uar(cm) == pytest.approx((4 / 5 + 9 / 10) / 2)
        assert missing_classes(cm) == ("b",)


class TestManifest:
    def test_load_and_validate(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("utterance_id,path,speaker_id,label\n"
                        "u1,a.wav,s1,happy\nu2,b.wav,s2,happy\n"
                        "u3,c.wav,s1,sad\n")
        rows = load_manifest(path)
        assert len(rows) == 3
        assert rows[0] == ManifestRow("u1", "a.wav", "s1", "happy")
        warnings = manifest_warnings(rows)
        assert len(warnings) == 1 and "sad" in warnings[0]

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("utterance_id,path,speaker_id,label\n"
                        "u1,a.wav,s1,x\nu1,b.wav,s2,x\n")
        with pytest.raises(ScatFeatError):
            load_manifest(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,file,spk,lab\nu1,a.wav,s1,x\n")
        with pytest.raises(ScatFeatError):
            load_manifest(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("utterance_id,path,speaker_id,label\n\n")
        with pytest.raises(ScatFeatError, match="no rows"):
            load_manifest(path)

    @pytest.mark.parametrize("row, field", [
        ("u2,b.wav,,x", "speaker_id"), (",b.wav,s2,x", "utterance_id"),
        ("u2,b.wav,s2,", "label"), ("u2,,s2,x", "path"), ("u2,b.wav, ,x", "speaker_id")])
    def test_empty_field_rejected(self, tmp_path, row, field):
        path = tmp_path / "m.csv"
        path.write_text(f"utterance_id,path,speaker_id,label\nu1,a.wav,s1,x\n{row}\n")
        with pytest.raises(ScatFeatError, match=rf"m\.csv:3: empty {field}$"):
            load_manifest(path)

    @pytest.mark.parametrize("row", ["u2,b.wav,s2", "u2,b.wav,s2,x,extra"])
    def test_wrong_field_count_rejected(self, tmp_path, row):
        path = tmp_path / "m.csv"
        path.write_text(f"utterance_id,path,speaker_id,label\nu1,a.wav,s1,x\n{row}\n")
        n_fields = len(row.split(","))
        with pytest.raises(ScatFeatError,
                           match=rf"m\.csv:3: expected 4 fields, got {n_fields}"):
            load_manifest(path)


def synthetic_feature_rows(rng, n_speakers=4, n_classes=3, per_cell=6, dim=8):
    """Well-separated class clusters plus a shared speaker nuisance dim."""
    rows = []
    for si in range(n_speakers):
        for ci in range(n_classes):
            for k in range(per_cell):
                vec = rng.normal(0, 0.05, dim)
                vec[ci] += 3.0
                vec[n_classes] += 0.2 * si
                rows.append(FeatureRow(f"s{si}c{ci}k{k}", f"s{si}", f"c{ci}", vec))
    return rows


class TestRunLoso:
    def test_separable_features_high_uar(self, rng):
        report = run_loso(synthetic_feature_rows(rng), c_values=(1.0, 10.0),
                          gamma_values=(0.05, 0.5))
        assert len(report.folds) == 4
        assert report.mean_uar >= 0.95
        assert report.pooled_confusion.total == 4 * 3 * 6

    def test_report_determinism(self, rng):
        rows = synthetic_feature_rows(np.random.default_rng(5))
        r1 = run_loso(rows, c_values=(1.0,), gamma_values=(0.1,))
        r2 = run_loso(rows, c_values=(1.0,), gamma_values=(0.1,))
        j1 = json.dumps(report_to_json_dict(r1), sort_keys=True)
        j2 = json.dumps(report_to_json_dict(r2), sort_keys=True)
        assert j1 == j2

    def test_fold_disjointness(self, rng):
        rows = synthetic_feature_rows(rng)
        by_speaker = {r.utterance_id: r.speaker_id for r in rows}
        for train, valid, test in loso_splits(
                [ManifestRow(r.utterance_id, "", r.speaker_id, r.label) for r in rows]):
            groups = set(train) | {valid, test}
            assert valid not in train and test not in train and valid != test
            for uid, spk in by_speaker.items():
                assert spk in groups

    def test_aggregate_is_fold_mean(self, rng):
        report = run_loso(synthetic_feature_rows(rng), c_values=(1.0,),
                          gamma_values=(0.1,))
        assert report.mean_uar == pytest.approx(
            np.mean([f.uar for f in report.folds]))
        assert report.mean_accuracy == pytest.approx(
            np.mean([f.accuracy for f in report.folds]))
        pooled = sum(f.confusion.counts for f in report.folds)
        assert np.array_equal(report.pooled_confusion.counts, pooled)

    @pytest.mark.parametrize("grid", [{}, {"c_values": (1.0,), "gamma_values": (0.1,)}])
    def test_no_rows_rejected(self, grid):
        with pytest.raises(TooFewRowsError):
            run_loso([], **grid)

    def test_rows_of_different_dimensions_rejected(self, rng):
        rows = synthetic_feature_rows(rng)
        rows[5] = FeatureRow(rows[5].utterance_id, rows[5].speaker_id,
                             rows[5].label, rows[5].vector[:-1])
        with pytest.raises(DimensionMismatchError, match=rows[5].utterance_id):
            run_loso(rows, c_values=(1.0,), gamma_values=(0.1,))

    def test_non_finite_features_rejected(self, rng):
        rows = synthetic_feature_rows(rng)
        rows[5].vector[2] = np.nan
        with pytest.raises(NonFiniteFeatureError):
            run_loso(rows, c_values=(1.0,), gamma_values=(0.1,))

    def test_experiment_without_rows_rejected(self):
        with pytest.raises(TooFewRowsError):
            run_experiment([], "mfcc", RunConfig())

    def test_one_solve_per_fold_cell_and_pair(self, rng, monkeypatch):
        """Each (fold, gamma, pair) dual is solved at the smallest C, then
        at each larger C until one solve is bound-free, and never after."""
        calls = []
        solve = scatfeat.classify.smo_solve

        def counting_solve(kernel, y, c):
            result = solve(kernel, y, c)
            calls.append(((kernel.tobytes(), y.tobytes()), c, result[5]))
            return result

        monkeypatch.setattr(scatfeat.classify, "smo_solve", counting_solve)
        c_values = (1.0, 10.0, 100.0)
        run_loso(synthetic_feature_rows(rng), c_values=c_values,
                 gamma_values=(0.05, 0.5))
        by_dual = {}
        for dual, c, bound_free in calls:
            by_dual.setdefault(dual, []).append((c, bound_free))
        n_folds, n_gammas, n_pairs = 4, 2, 3
        assert len(by_dual) == n_folds * n_gammas * n_pairs
        for solves in by_dual.values():
            cs, free = zip(*solves)
            assert cs == c_values[:len(cs)]
            assert not any(free[:-1]) and (free[-1] or len(cs) == len(c_values))
        # every dual reaches C = 1 and is bound-free at C = 10, so C = 100
        # solves none of them: 48 solves instead of 72
        assert len(calls) == len(by_dual) * 2

    def test_matches_a_retrain_with_the_fold_standardizer(self, rng):
        rows = synthetic_feature_rows(rng, per_cell=4)
        for r in rows:
            r.vector[:] += rng.normal(0, 1.5, r.vector.shape)
        report = run_loso(rows, c_values=(0.1, 10.0), gamma_values=(0.05, 0.5))
        x = np.stack([r.vector for r in rows])
        y = np.array([r.label for r in rows])
        spk = np.array([r.speaker_id for r in rows])
        for fold, (train, _, test) in zip(report.folds, loso_splits(rows)):
            in_train, in_test = np.isin(spk, train), spk == test
            std = standardize_fit(x[in_train])
            model = svm_train(standardize_apply(std, x[in_train]), y[in_train],
                              fold.best_c, fold.best_gamma, standardizer=std)
            cm = confusion(list(y[in_test]), list(svm_predict(model, x[in_test])),
                           report.classes)
            assert np.array_equal(cm.counts, fold.confusion.counts)


    @pytest.mark.parametrize("max_iter", [None, 3])
    def test_matches_a_slow_reference(self, rng, monkeypatch, max_iter):
        """run_loso equals a harness built from public pieces: svm_train per
        cell in C-then-gamma order, the first strict maximum of validation
        UAR, svm_predict and confusion on the label strings. Speaker s3
        alone holds class c, so fold 2 validates on a class absent from its
        training rows and fold 3 tests on one. With max_iter the SMO stops
        early, so the warnings, which name the labels, are compared too."""
        if max_iter is not None:
            solve = scatfeat.classify.smo_solve
            monkeypatch.setattr(scatfeat.classify, "smo_solve",
                                lambda kernel, y, c: solve(kernel, y, c, max_iter=max_iter))
        rows = []
        for si in range(4):
            for ci in range(3 if si == 3 else 2):
                for k in range(5):
                    vec = rng.normal(0, 0.8, 4)
                    vec[ci] += 1.5
                    vec[3] += 0.3 * si
                    rows.append(FeatureRow(f"s{si}c{ci}k{k}", f"s{si}", "abc"[ci], vec))
        c_values, gamma_values = (0.1, 1.0, 10.0), (0.05, 0.5)
        report = run_loso(rows, c_values=c_values, gamma_values=gamma_values)

        classes = ("a", "b", "c")
        x = np.stack([r.vector for r in rows])
        y = np.array([r.label for r in rows])
        spk = np.array([r.speaker_id for r in rows])
        folds = []
        for train, valid, test in loso_splits(rows):
            in_train, in_valid, in_test = np.isin(spk, train), spk == valid, spk == test
            std = standardize_fit(x[in_train])
            x_train, x_valid, x_test = (standardize_apply(std, x[m])
                                        for m in (in_train, in_valid, in_test))
            best = None
            for c in c_values:
                for gamma in gamma_values:
                    model = svm_train(x_train, y[in_train], c, gamma)
                    score = uar(confusion(list(y[in_valid]),
                                          list(svm_predict(model, x_valid)), classes))
                    if best is None or score > best[0]:
                        best = (score, c, gamma, model)
            _, c, gamma, model = best
            cm = confusion(list(y[in_test]), list(svm_predict(model, x_test)), classes)
            folds.append(FoldReport(test, valid, c, gamma, accuracy(cm), uar(cm), cm,
                                    missing_classes(cm), tuple(model.convergence_warnings)))
        pooled = ConfusionMatrix(classes, sum(f.confusion.counts for f in folds))
        expected = ExperimentReport(
            "", "", classes, tuple(folds), float(np.mean([f.accuracy for f in folds])),
            float(np.mean([f.uar for f in folds])), pooled, accuracy(pooled), uar(pooled))

        assert report_to_json_dict(report) == report_to_json_dict(expected)
        assert "c" not in y[np.isin(spk, loso_splits(rows)[2][0])]
        assert bool(report.convergence_warnings) == (max_iter is not None)


class TestReportJson:
    def test_keys_and_types_are_pinned(self):
        """report.json's keys are the report fields' names, so this pins
        them: a renamed field fails here before it changes the format."""
        fold = FoldReport("s1", "s2", 10.0, 0.5, 0.5, 0.5,
                          ConfusionMatrix(("a", "b"), np.array([[1, 1], [0, 0]])),
                          ("b",), ("pair (a, b) hit the SMO iteration cap",))
        report = ExperimentReport(
            "scatnet", "abc", ("a", "b"), (fold,), 0.5, 0.5,
            ConfusionMatrix(("a", "b"), np.array([[1, 1], [0, 0]])), 0.5, 0.5)
        doc = report_to_json_dict(report)
        assert set(doc) == {"feature_kind", "config_hash", "classes", "folds",
                            "mean_accuracy", "mean_uar", "pooled_confusion",
                            "pooled_accuracy", "pooled_uar"}
        assert set(doc["folds"][0]) == {"test_speaker", "valid_speaker", "best_c",
                                        "best_gamma", "accuracy", "uar", "confusion",
                                        "missing_classes", "convergence_warnings"}
        assert doc["classes"] == ["a", "b"] and type(doc["folds"]) is list
        assert doc["folds"][0]["missing_classes"] == ["b"]
        assert doc["folds"][0]["convergence_warnings"] == [
            "pair (a, b) hit the SMO iteration cap"]
        for counts in (doc["pooled_confusion"], doc["folds"][0]["confusion"]):
            assert counts == [[1, 1], [0, 0]]
            assert all(type(v) is int for row in counts for v in row)
        assert json.loads(json.dumps(doc)) == doc


class TestRendering:
    def test_confusion_text_alignment(self):
        cm = ConfusionMatrix(("angry", "sad"), np.array([[12, 3], [0, 7]]))
        text = confusion_to_text(cm)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "angry" in lines[0] and "sad" in lines[0]
        assert lines[1].split() == ["angry", "12", "3"]
        assert lines[2].split() == ["sad", "0", "7"]

    def test_csv_has_fold_and_aggregate_rows(self, rng):
        report = run_loso(synthetic_feature_rows(rng), c_values=(1.0,),
                          gamma_values=(0.1,))
        lines = report_to_csv(report).strip().splitlines()
        assert lines[0].startswith("fold,")
        assert len(lines) == 1 + len(report.folds) + 1
        assert lines[-1].startswith("aggregate")
