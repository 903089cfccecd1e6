import json

import numpy as np
import pytest

import scatfeat.classify
import scatfeat.cli
import scatfeat.features
from scatfeat.classify import model_from_json
from scatfeat.cli import build_parser, main
from scatfeat.config import load_config
from scatfeat.synthetic import write_am_dataset

SMALL_CFG = ("feature_kind=scatnet\nq1=3\nq2=1\nt=1024\nn=4096\n"
             "f_wavelet_len=8\nsvm_c=1,10\nsvm_gamma_scale=1\n")


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = write_am_dataset(
        root,
        carriers_hz={"spkA": 600.0, "spkB": 1200.0, "spkC": 2400.0},
        mod_rates_hz={"fast": 256.0, "slow": 64.0},
        utterances_per_cell=3, n_samples=4096, seed=7)
    return manifest


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(SMALL_CFG)
    return path


class TestExtract:
    def test_extract_mfcc(self, mini_corpus, cfg_file, tmp_path, capsys):
        out = tmp_path / "mfcc.csv"
        code = main(["extract", "--manifest", str(mini_corpus),
                     "--feature", "mfcc", "--config", str(cfg_file),
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#SCATFEAT v1 kind=mfcc dim=26 config_hash=")
        assert len(lines) == 1 + 18

    def test_rerun_byte_identical(self, mini_corpus, cfg_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["extract", "--manifest", str(mini_corpus),
                         "--feature", "scatnet", "--config", str(cfg_file),
                         "--out", str(out), "--threads", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("line", ["log_compress=false", "sample_rate_hz=22050",
                                      "feature_kind=mfcc", "log_eps=1e-6"])
    def test_retired_config_value_exits_2(self, mini_corpus, tmp_path, capsys, line):
        key = line.split("=")[0]
        kept = [ln for ln in SMALL_CFG.splitlines() if not ln.startswith(key + "=")]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(kept + [line]) + "\n")
        out = tmp_path / "feat.csv"
        assert main(["extract", "--manifest", str(mini_corpus), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert f"config key '{key}': only" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out_directory_exits_2_before_extracting(
            self, mini_corpus, cfg_file, tmp_path, capsys, monkeypatch):
        calls = counting(monkeypatch, "extract_vector")
        out = tmp_path / "missing_dir" / "x.csv"
        assert main(["extract", "--manifest", str(mini_corpus), "--config",
                     str(cfg_file), "--out", str(out), "--threads", "1"]) == 2
        assert error_lines(capsys) == [f"error: {out}: its directory does not exist"]
        assert calls == [] and not out.parent.exists()

    def test_threads_default_ignores_environment(self, mini_corpus, cfg_file,
                                                 tmp_path, monkeypatch):
        monkeypatch.setenv("SCATFEAT_THREADS", "abc")
        assert main(["extract", "--manifest", str(mini_corpus), "--feature", "mfcc",
                     "--config", str(cfg_file), "--out", str(tmp_path / "f.csv")]) == 0

    def test_missing_wav_exits_2(self, mini_corpus, cfg_file, tmp_path, capsys):
        bad_manifest = tmp_path / "bad.csv"
        content = mini_corpus.read_text().splitlines()
        content.append("u_missing,/nonexistent/x.wav,spkA,fast")
        bad_manifest.write_text("\n".join(content) + "\n")
        out = tmp_path / "feat.csv"
        code = main(["extract", "--manifest", str(bad_manifest),
                     "--feature", "mfcc", "--config", str(cfg_file),
                     "--out", str(out)])
        assert code == 2
        assert "u_missing" in capsys.readouterr().err


@pytest.fixture(scope="module")
def feature_file(mini_corpus, cfg_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("feat") / "scatnet.csv"
    assert main(["extract", "--manifest", str(mini_corpus),
                 "--feature", "scatnet", "--config", str(cfg_file),
                 "--out", str(out)]) == 0
    return out


def test_extract_defaults_to_scatnet(mini_corpus, cfg_file, feature_file, tmp_path):
    out = tmp_path / "default.csv"
    assert main(["extract", "--manifest", str(mini_corpus), "--config", str(cfg_file),
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("#SCATFEAT v1 kind=scatnet ")
    assert out.read_bytes() == feature_file.read_bytes()


class TestEvaluate:
    def test_evaluate_writes_reports(self, feature_file, cfg_file, tmp_path):
        report_dir = tmp_path / "rep"
        code = main(["evaluate", "--features", str(feature_file),
                     "--config", str(cfg_file), "--report-dir", str(report_dir)])
        assert code in (0, 3)
        report = json.loads((report_dir / "report.json").read_text())
        assert len(report["folds"]) == 3
        assert 0.0 <= report["mean_uar"] <= 1.0
        assert (report_dir / "summary.csv").exists()
        text = (report_dir / "confusions.txt").read_text()
        assert "pooled" in text
        assert report["config_hash"] == feature_file.read_text().split(
            "config_hash=")[1].split()[0]

    def test_provenance_mismatch_exits_2(self, feature_file, tmp_path):
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(SMALL_CFG.replace("q1=3", "q1=4"))
        code = main(["evaluate", "--features", str(feature_file),
                     "--config", str(other_cfg),
                     "--report-dir", str(tmp_path / "rep2")])
        assert code == 2

    def test_provenance_match_ok(self, feature_file, cfg_file, tmp_path):
        code = main(["evaluate", "--features", str(feature_file),
                     "--config", str(cfg_file),
                     "--report-dir", str(tmp_path / "rep3")])
        assert code in (0, 3)


class TestTrain:
    def test_train_writes_model(self, mini_corpus, cfg_file, tmp_path):
        feat = tmp_path / "mfcc.csv"
        assert main(["extract", "--manifest", str(mini_corpus),
                     "--feature", "mfcc", "--config", str(cfg_file),
                     "--out", str(feat)]) == 0
        model_path = tmp_path / "model.json"
        code = main(["train", "--features", str(feat), "--c", "10",
                     "--gamma", "0.05", "--out", str(model_path)])
        assert code in (0, 3)
        doc = json.loads(model_path.read_text())
        assert set(doc) == {"classes", "gamma", "c", "standardizer", "support_vectors",
                            "coef", "bias", "kkt_residual", "converged"}
        assert doc["classes"] == ["fast", "slow"]
        assert len(doc["bias"]) == 1
        assert all(len(row) == 1 for row in doc["coef"])

    def test_capped_solver_exits_3_printing_why(self, feature_file, tmp_path,
                                                capsys, monkeypatch):
        solve = scatfeat.classify.smo_solve
        monkeypatch.setattr(scatfeat.classify, "smo_solve",
                            lambda kernel, y, c: solve(kernel, y, c, max_iter=1))
        model_path = tmp_path / "model.json"
        assert main(["train", "--features", str(feature_file), "--c", "10",
                     "--gamma", "0.05", "--out", str(model_path)]) == 3
        warnings = model_from_json(model_path.read_text()).convergence_warnings
        assert warnings
        assert capsys.readouterr().err.splitlines() == [f"warning: {w}" for w in warnings]


class TestEmptyFeatureFile:
    @pytest.mark.parametrize("command", [
        ["evaluate", "--report-dir", "rep"],
        ["train", "--c", "1", "--gamma", "0.1", "--out", "model.json"],
    ])
    def test_exits_2(self, tmp_path, capsys, command):
        feat = tmp_path / "empty.csv"
        feat.write_text("#SCATFEAT v1 kind=mfcc dim=3 config_hash=abc\n")
        args = [str(tmp_path / a) if a in ("rep", "model.json") else a
                for a in command]
        assert main(args + ["--features", str(feat)]) == 2
        assert "no feature rows" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()
        assert not (tmp_path / "model.json").exists()


def counting(monkeypatch, name, module=scatfeat.features):
    """Replace module.<name> by a wrapper that records its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("error:")]


class TestBadSvmGrid:
    @pytest.mark.parametrize("line", ["svm_c=0", "svm_c=", "svm_c=1,-1",
                                      "svm_gamma_scale=nan"])
    def test_evaluate_exits_2(self, feature_file, tmp_path, capsys, line):
        grid = tmp_path / "grid.cfg"
        grid.write_text(line + "\n")
        report_dir = tmp_path / "rep"
        assert main(["evaluate", "--features", str(feature_file), "--config", str(grid),
                     "--report-dir", str(report_dir)]) == 2
        assert f"error: {grid}: SVM " in capsys.readouterr().err
        assert not report_dir.exists()

    @pytest.mark.parametrize("line", ["svm_c=0", "svm_c=", "svm_gamma_scale=-1"])
    def test_sweep_exits_2_before_extracting(self, mini_corpus, cfg_file, tmp_path,
                                             capsys, monkeypatch, line):
        calls = counting(monkeypatch, "extract_vector")
        cfg = tmp_path / "run.cfg"
        key = line.split("=")[0] + "="  # set in place: a key may appear once
        kept = [ln for ln in cfg_file.read_text().splitlines() if not ln.startswith(key)]
        cfg.write_text("\n".join(kept + [line]) + "\n")
        assert main(["sweep", "--manifest", str(mini_corpus), "--q", "3",
                     "--t", "512", "--config", str(cfg), "--threads", "1",
                     "--report-dir", str(tmp_path / "rep")]) == 2
        assert f"error: {cfg}: SVM " in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("c, gamma", [("-1", "0.1"), ("0", "0.1"), ("1", "0"),
                                          ("1", "inf")])
    def test_train_exits_2(self, feature_file, tmp_path, capsys, c, gamma):
        model = tmp_path / "model.json"
        assert main(["train", "--features", str(feature_file), "--c", c,
                     "--gamma", gamma, "--out", str(model)]) == 2
        assert "error: SVM " in capsys.readouterr().err
        assert not model.exists()


class TestBadConfigFailsOnce:
    """A config that cannot run fails with one error line before any WAV is
    read or transformed."""

    def test_sweep_log_eps_nan(self, mini_corpus, cfg_file, tmp_path, capsys,
                               monkeypatch):
        calls = counting(monkeypatch, "extract_vector")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_file.read_text() + "log_eps=nan\n")
        assert main(["sweep", "--manifest", str(mini_corpus), "--q", "3",
                     "--t", "512", "--config", str(cfg), "--threads", "1",
                     "--report-dir", str(tmp_path / "rep")]) == 2
        assert len(error_lines(capsys)) == 1 and calls == []
        assert not (tmp_path / "rep").exists()

    def test_sweep_q_below_one(self, mini_corpus, cfg_file, tmp_path, capsys,
                               monkeypatch):
        calls = counting(monkeypatch, "extract_vector")
        assert main(["sweep", "--manifest", str(mini_corpus), "--q", "3,0",
                     "--t", "512", "--config", str(cfg_file), "--threads", "1",
                     "--report-dir", str(tmp_path / "rep")]) == 2
        assert error_lines(capsys) == ["error: q must be >= 1, got 0"]
        assert calls == []

    def test_extract_bad_t(self, mini_corpus, tmp_path, capsys, monkeypatch):
        calls = counting(monkeypatch, "extract_vector")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG.replace("t=1024", "t=1000"))
        out = tmp_path / "feat.csv"
        assert main(["extract", "--manifest", str(mini_corpus), "--config", str(cfg),
                     "--out", str(out), "--threads", "4"]) == 2
        assert error_lines(capsys) == ["error: t must be a power of two, got 1000"]
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("n", [200, 479])  # below one window, two frames
    def test_mfcc_n_below_two_frames(self, mini_corpus, tmp_path, capsys,
                                     monkeypatch, n):
        calls = counting(monkeypatch, "load_wav")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG.replace("n=4096", f"n={n}"))
        out = tmp_path / "feat.csv"
        assert main(["extract", "--manifest", str(mini_corpus), "--feature", "mfcc",
                     "--config", str(cfg), "--out", str(out), "--threads", "4"]) == 2
        assert error_lines(capsys) == [
            f"error: n={n} samples < 480, two MFCC frames (window 320, hop 160)"]
        assert calls == [] and not out.exists()

    def test_f_scatnet_wavelet_longer_than_the_axis(self, mini_corpus, tmp_path,
                                                    capsys, monkeypatch):
        calls = counting(monkeypatch, "time_scattering")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG.replace("f_wavelet_len=8", "f_wavelet_len=64"))
        out = tmp_path / "feat.csv"
        assert main(["extract", "--manifest", str(mini_corpus), "--feature",
                     "f-scatnet", "--config", str(cfg), "--out", str(out),
                     "--threads", "4"]) == 2
        lines = error_lines(capsys)
        assert len(lines) == 1 and "f_wavelet_len=64" in lines[0]
        assert calls == [] and not out.exists()


class TestBadFeatureFile:
    @pytest.mark.parametrize("body, message", [
        ("#SCATFEAT v1 kind=mfcc dim=0 config_hash=x\nu0,s0,a\nu1,s1,b\nu2,s2,a\n",
         "feat.csv:1: dim must be at least 1"),
        ("#SCATFEAT v1 kind=mfcc dim=1 config_hash=x\nu0,s0,a,1\nu1,s1,b,nan\n"
         "u2,s2,a,2\n", "feat.csv:3: non-finite value 'nan'"),
        ("#SCATFEAT v1 kind=bogus dim=1 config_hash=x\nu0,s0,a,1\nu1,s1,b,2\n"
         "u2,s2,a,3\n", "feat.csv:1: unknown feature kind 'bogus'"),
    ])
    def test_evaluate_exits_2(self, tmp_path, capsys, body, message):
        feat = tmp_path / "feat.csv"
        feat.write_text(body)
        assert main(["evaluate", "--features", str(feat),
                     "--report-dir", str(tmp_path / "rep")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()


class TestHeaderOnlyManifest:
    @pytest.mark.parametrize("command", [
        ["extract", "--feature", "mfcc", "--out", "feat.csv"],
        ["sweep", "--q", "3", "--t", "512", "--report-dir", "rep"],
    ])
    def test_exits_2(self, cfg_file, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("utterance_id,path,speaker_id,label\n")
        args = [str(tmp_path / a) if a in ("feat.csv", "rep") else a
                for a in command]
        assert main(args + ["--manifest", str(manifest),
                            "--config", str(cfg_file)]) == 2
        out, err = capsys.readouterr()
        assert "manifest has no rows" in err and "wrote" not in out
        assert not (tmp_path / "feat.csv").exists()
        assert not (tmp_path / "rep").exists()


class TestShortManifestRow:
    @pytest.mark.parametrize("command", [
        ["extract", "--feature", "mfcc", "--out", "feat.csv"],
        ["sweep", "--q", "3", "--t", "512", "--report-dir", "rep"],
    ])
    def test_exits_2(self, cfg_file, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("utterance_id,path,speaker_id,label\nu1,a.wav,s1\n")
        args = [str(tmp_path / a) if a in ("feat.csv", "rep") else a
                for a in command]
        assert main(args + ["--manifest", str(manifest),
                            "--config", str(cfg_file)]) == 2
        out, err = capsys.readouterr()
        assert "manifest.csv:2: expected 4 fields, got 3" in err
        assert "Traceback" not in err and "wrote" not in out
        assert not (tmp_path / "feat.csv").exists()


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("command", [
        ["extract", "--manifest", "m.csv", "--out", "feat.csv"],
        ["sweep", "--manifest", "m.csv", "--q", "3", "--t", "512",
         "--report-dir", "rep"],
    ])
    def test_below_one_is_a_usage_error(self, capsys, command, threads):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--threads", threads])
        assert exc.value.code == 1
        assert f"must be at least 1, got {int(threads)}" in capsys.readouterr().err


class TestEmptyIntList:
    @pytest.mark.parametrize("q, t", [(",", "512"), ("3", "")])
    def test_is_a_usage_error(self, mini_corpus, tmp_path, capsys, q, t):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--manifest", str(mini_corpus), "--q", q, "--t", t,
                  "--report-dir", str(tmp_path / "rep")])
        assert exc.value.code == 1
        assert "needs at least one integer" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("flag, q, t, bad", [("--q", "1,,3", "1024", "1,,3"),
                                                 ("--t", "3", "1024,", "1024,")])
    def test_empty_item_is_a_usage_error(self, capsys, flag, q, t, bad):
        """An empty item is not skipped: 1,,3 is not read as 1,3."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--manifest", "m", "--q", q,
                                       "--t", t, "--report-dir", "o"])
        assert exc.value.code == 1
        assert f"argument {flag}: empty item in {bad!r}" in capsys.readouterr().err


class TestMalformedJsonConfig:
    def test_extract_exits_2_naming_the_file(self, mini_corpus, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{bad")
        out = tmp_path / "feat.csv"
        assert main(["extract", "--manifest", str(mini_corpus), "--config", str(cfg),
                     "--out", str(out)]) == 2
        lines = error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}: malformed JSON")
        assert not out.exists()


class TestSweep:
    def test_sweep_csv(self, mini_corpus, cfg_file, tmp_path):
        report_dir = tmp_path / "sweep"
        code = main(["sweep", "--manifest", str(mini_corpus),
                     "--q", "3", "--t", "512,1024",
                     "--config", str(cfg_file), "--report-dir", str(report_dir)])
        assert code == 0
        lines = (report_dir / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "q,t,mean_accuracy,mean_uar"
        assert len(lines) == 3
        for line in lines[1:]:
            q, t, acc, uar_ = line.split(",")
            assert float(acc) == float(acc) and float(uar_) == float(uar_)
        saved = report_dir / "sweep_config.txt"
        assert "feature_kind" not in saved.read_text()
        assert "log_eps" not in saved.read_text()
        assert load_config(saved) == load_config(cfg_file)

    def test_bad_t_rejected(self, mini_corpus, cfg_file, tmp_path):
        code = main(["sweep", "--manifest", str(mini_corpus),
                     "--q", "3", "--t", "1000",
                     "--config", str(cfg_file),
                     "--report-dir", str(tmp_path / "x")])
        assert code == 2

    def test_failed_sweep_leaves_no_report_dir(self, mini_corpus, cfg_file, tmp_path,
                                               capsys):
        report_dir = tmp_path / "out"
        assert main(["sweep", "--manifest", str(mini_corpus), "--q", "5",
                     "--t", "1000", "--config", str(cfg_file),
                     "--report-dir", str(report_dir)]) == 2
        assert "t must be a power of two, got 1000" in capsys.readouterr().err
        assert not report_dir.exists()


class TestInspectFilters:
    def test_dump(self, tmp_path):
        out = tmp_path / "bank.csv"
        code = main(["inspect-filters", "--q", "5", "--t", "1024",
                     "--n", "4000", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,center_freq_hz,bandwidth_hz,region"
        assert len(lines) > 10
        assert all(line.split(",")[3] in ("geo", "lin") for line in lines[1:])


class TestMissingOutDirectory:
    """train and inspect-filters, like extract, check --out's directory
    before they read or compute anything."""

    def test_train_exits_2_before_training(self, feature_file, tmp_path, capsys,
                                           monkeypatch):
        calls = counting(monkeypatch, "smo_solve", scatfeat.classify)
        out = tmp_path / "missing_dir" / "m.json"
        assert main(["train", "--features", str(feature_file), "--c", "1",
                     "--gamma", "0.1", "--out", str(out)]) == 2
        assert error_lines(capsys) == [f"error: {out}: its directory does not exist"]
        assert calls == [] and not out.parent.exists()

    def test_inspect_filters_exits_2_before_building(self, tmp_path, capsys,
                                                     monkeypatch):
        calls = counting(monkeypatch, "build_morlet_bank", scatfeat.cli)
        out = tmp_path / "missing_dir" / "f.csv"
        assert main(["inspect-filters", "--q", "1", "--t", "64", "--n", "256",
                     "--out", str(out)]) == 2
        assert error_lines(capsys) == [f"error: {out}: its directory does not exist"]
        assert calls == [] and not out.parent.exists()


class TestUnusableReportDir:
    """evaluate and sweep check --report-dir before they read, extract or
    train anything, and make no directory when it cannot be made."""

    @pytest.mark.parametrize("name", ["taken", "taken/sub"])
    def test_evaluate_exits_2_before_training(self, feature_file, tmp_path, capsys,
                                              monkeypatch, name):
        calls = counting(monkeypatch, "smo_solve", scatfeat.classify)
        (tmp_path / "taken").write_text("")
        report_dir = tmp_path / name
        assert main(["evaluate", "--features", str(feature_file),
                     "--report-dir", str(report_dir)]) == 2
        assert error_lines(capsys) == [
            f"error: {report_dir}: {tmp_path / 'taken'} is not a directory"]
        assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / "taken"]

    @pytest.mark.parametrize("name", ["taken", "taken/sub"])
    def test_sweep_exits_2_before_extracting(self, mini_corpus, cfg_file, tmp_path,
                                             capsys, monkeypatch, name):
        calls = counting(monkeypatch, "extract_vector")
        (tmp_path / "taken").write_text("")
        report_dir = tmp_path / name
        assert main(["sweep", "--manifest", str(mini_corpus), "--q", "3",
                     "--t", "512", "--config", str(cfg_file), "--threads", "1",
                     "--report-dir", str(report_dir)]) == 2
        assert error_lines(capsys) == [
            f"error: {report_dir}: {tmp_path / 'taken'} is not a directory"]
        assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / "taken"]


class TestUsageErrors:
    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_inspect_filters_n_below_one(self, tmp_path, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["inspect-filters", "--q", "1", "--t", "64", "--n", n,
                  "--out", str(tmp_path / "f.csv")])
        assert exc.value.code == 1
        assert f"argument --n: must be at least 1, got {int(n)}" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--manifest", "m.csv"])
        assert exc.value.code == 1
