import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatfeat.classify
from scatfeat.classify import (standardize_apply, standardize_fit, svm_predict,
                               svm_train)
from scatfeat.errors import (EmptyMatrixError, ScatFeatError,
                             TooFewSpeakersError, UnknownLabelError)
from scatfeat.evaluation import (ConfusionMatrix, FeatureRow, ManifestRow,
                                 accuracy, confusion, confusion_to_text,
                                 load_manifest, loso_splits,
                                 manifest_warnings, missing_classes,
                                 report_to_csv, report_to_json_dict, run_loso,
                                 uar)


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

    def test_one_solve_per_fold_cell_and_pair(self, rng, monkeypatch):
        calls = []
        solve = scatfeat.classify.smo_solve

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(scatfeat.classify, "smo_solve", counting_solve)
        run_loso(synthetic_feature_rows(rng), c_values=(1.0, 10.0),
                 gamma_values=(0.05, 0.5))
        n_folds, n_cells, n_pairs = 4, 2 * 2, 3
        assert len(calls) == n_folds * n_cells * n_pairs

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
