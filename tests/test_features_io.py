import importlib.util
import re
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from scatfeat import features, filterbank
from scatfeat.audio_io import Waveform
from scatfeat.config import (RunConfig, config_from_text, config_to_text,
                             feature_config_hash, load_config)
from scatfeat.errors import InvalidSpecError, ScatFeatError
from scatfeat.evaluation import FeatureRow, ManifestRow
from scatfeat.features import (extract_many, extract_vector,
                               read_feature_file, write_feature_file)
from scatfeat.filterbank import cached_bank
from scatfeat.synthetic import write_wav_pcm16

from testkit import FS, bandlimited_noise

# Laptop-speed configuration for exercising the extraction pipeline.
SMALL = RunConfig(q1=3, t=1024, n=4096, f_wavelet_len=8)

# config_to_text(RunConfig()) as written before sample_rate_hz and
# log_compress were retired, with the hashes it gave then (f-scatnet's
# before its definition changed: 1fa157240af0).
RETIRED_DEFAULT_TEXT = """f_wavelet_len=32
feature_kind=scatnet
fmax_hz=8000
fmin_hz=0
hop_ms=10
log_compress=True
log_eps=9.9999999999999995e-08
mfcc_n_fft=512
n=51000
n_coeffs=13
n_mels=26
q1=5
q2=1
sample_rate_hz=16000
svm_c=0.10000000000000001,1,10,100
svm_gamma_scale=0.10000000000000001,1,10
t=16384
win_ms=20
"""
DEFAULT_HASHES = {"scatnet": "5f7a6014855e", "scat-layer1": "a2f95372f372",
                  "scat-layer2": "1682967b423f", "mfcc": "9c90fb8aa0a4",
                  "f-scatnet": "27184c3cd638"}


# One invalid value each, as constructor keywords and as config text. A
# RunConfig checks them when it is made, so none of them can exist.
BAD_CONFIGS = [
    ({"n": 0}, "n=0\n", "n must be positive"),
    ({"log_eps": 0.0}, "log_eps=0\n", "log_eps"),
    ({"log_eps": float("nan")}, "log_eps=nan\n", "log_eps"),
    ({"log_eps": float("inf")}, "log_eps=inf\n", "log_eps"),
    ({"feature_kind": "bogus"}, "feature_kind=bogus\n", "unknown feature kind"),
    ({"svm_c": (0.0,)}, "svm_c=0\n", "SVM C"),
]


def load_reference():
    """scatbench/reference.py: full-resolution scattering written from the
    method's definition, one transform per path."""
    path = Path(__file__).resolve().parents[1] / "scatbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("scatbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestConfig:
    def test_roundtrip_via_text(self):
        cfg = RunConfig(feature_kind="mfcc", q1=8, t=4096, svm_c=(0.5, 2.0))
        back = config_from_text(config_to_text(cfg))
        assert back == cfg

    def test_json_form(self):
        cfg = config_from_text('{"q1": 8, "t": 4096, "log_compress": true}')
        assert cfg == RunConfig(q1=8, t=4096)

    def test_key_value_form(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nq1=4\nsvm_c=1,10\nsample_rate_hz=16000\n")
        cfg = load_config(path)
        assert cfg == RunConfig(q1=4, svm_c=(1.0, 10.0))

    def test_retired_keys_load_at_their_one_value(self):
        cfg = config_from_text(RETIRED_DEFAULT_TEXT)
        assert cfg == RunConfig() and cfg.sample_rate_hz == 16000
        assert {k: feature_config_hash(cfg, k) for k in DEFAULT_HASHES} == DEFAULT_HASHES

    @pytest.mark.parametrize("text, key", [
        ("log_compress=false\n", "log_compress"),
        ("sample_rate_hz=22050\n", "sample_rate_hz"),
        ('{"log_compress": false}', "log_compress"),
        ('{"sample_rate_hz": 44100}', "sample_rate_hz"),
        ("n_coeffs=20\n", "n_coeffs"),
        ("q2=2\n", "q2"),
        ('{"win_ms": 25}', "win_ms"),
    ])
    def test_retired_keys_reject_other_values(self, text, key):
        with pytest.raises(ScatFeatError, match=key):
            config_from_text(text)

    @pytest.mark.parametrize("text", ["win_ms=20.0\nfmin_hz=0.0\nn_mels=26\n",
                                      '{"fmax_hz": 8000, "hop_ms": 10.0, "q2": 1}'])
    def test_retired_keys_compare_as_numbers(self, text):
        assert config_from_text(text) == RunConfig()

    def test_eight_settable_fields(self):
        assert [f.name for f in fields(RunConfig)] == [
            "feature_kind", "q1", "t", "n", "f_wavelet_len", "log_eps", "svm_c",
            "svm_gamma_scale"]
        assert not hasattr(RunConfig, "validate") and not hasattr(RunConfig, "hop")
        assert (RunConfig.win_samples, RunConfig.hop_samples) == (320, 160)

    @pytest.mark.parametrize("text, key", [
        ('{"q1": 8.7}', "q1"), ('{"q2": true}', "q2"), ('{"n": "many"}', "n"),
        ("q1=8.7\n", "q1"), ("t=\n", "t"),
    ])
    def test_integer_fields_reject_non_integers(self, text, key):
        with pytest.raises(ScatFeatError, match=f"config key '{key}'"):
            config_from_text(text)

    @pytest.mark.parametrize("text, key", [
        ('{"log_eps": true}', "log_eps"), ('{"log_eps": false}', "log_eps"),
        ('{"svm_c": [true]}', "svm_c"), ('{"svm_c": [1.0, true]}', "svm_c"),
        ('{"svm_c": true}', "svm_c"), ('{"svm_gamma_scale": [0.1, false]}',
                                       "svm_gamma_scale"),
    ])
    def test_number_fields_reject_json_booleans(self, text, key):
        with pytest.raises(ScatFeatError, match=f"config key '{key}': not a valid"):
            config_from_text(text)

    @pytest.mark.parametrize("values, text, match", BAD_CONFIGS)
    def test_constructor_rejects(self, values, text, match):
        with pytest.raises(ScatFeatError, match=match):
            RunConfig(**values)

    @pytest.mark.parametrize("values, text, match", BAD_CONFIGS)
    def test_replace_rejects(self, values, text, match):
        with pytest.raises(ScatFeatError, match=match):
            replace(SMALL, **values)

    @pytest.mark.parametrize("values, text, match", BAD_CONFIGS)
    def test_config_text_rejects(self, values, text, match):
        with pytest.raises(ScatFeatError, match=match):
            config_from_text(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ScatFeatError):
            config_from_text("bogus=1\n")

    def test_malformed_json(self, tmp_path):
        with pytest.raises(ScatFeatError, match="^malformed JSON config: "):
            config_from_text("{bad")
        path = tmp_path / "bad.json"
        path.write_text("{bad")
        with pytest.raises(ScatFeatError, match=f"^{re.escape(str(path))}: malformed JSON"):
            load_config(path)

    def test_load_config_names_the_file_and_keeps_the_type(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("t=8192\nn=0\n")
        with pytest.raises(InvalidSpecError, match=f"^{re.escape(str(path))}: n must"):
            load_config(path)

    def test_hash_depends_on_kind_and_params(self):
        a = feature_config_hash(SMALL, "scatnet")
        assert a == feature_config_hash(SMALL, "scatnet")
        assert a != feature_config_hash(SMALL, "mfcc")
        assert a != feature_config_hash(RunConfig(q1=4, t=1024, n=4096,
                                                  f_wavelet_len=8), "scatnet")
        assert a != feature_config_hash(replace(SMALL, log_eps=1e-6), "scatnet")

    def test_hash_ignores_svm_grid(self):
        other = RunConfig(q1=3, t=1024, n=4096, f_wavelet_len=8,
                          svm_c=(9.0,))
        assert feature_config_hash(SMALL, "scatnet") == \
            feature_config_hash(other, "scatnet")


class TestExtractVector:
    def test_mfcc_dim(self, rng):
        w = Waveform(bandlimited_noise(rng, 4096), FS)
        assert extract_vector("mfcc", w, SMALL).shape == (26,)

    def test_layer_subsets_partition_scatnet(self, rng):
        w = Waveform(bandlimited_noise(rng, 4096), FS)
        full = extract_vector("scatnet", w, SMALL)
        l1 = extract_vector("scat-layer1", w, SMALL)
        l2 = extract_vector("scat-layer2", w, SMALL)
        assert l1.shape[0] + l2.shape[0] == full.shape[0]
        assert np.array_equal(np.concatenate([l1, l2]), full)

    def test_f_scatnet_extends_scatnet(self, rng):
        w = Waveform(bandlimited_noise(rng, 4096), FS)
        full = extract_vector("scatnet", w, SMALL)
        fsc = extract_vector("f-scatnet", w, SMALL)
        assert fsc.shape[0] > full.shape[0]
        assert np.array_equal(fsc[: full.shape[0]], full)

    def test_scatnet_matches_reference(self, rng):
        ref = load_reference()
        w = Waveform(bandlimited_noise(rng, 5000), FS)  # cropped to n=4096
        n_fft = SMALL.n_fft
        expect = ref.scatnet_reference(w.samples, SMALL.n, SMALL.t,
                                       cached_bank(SMALL.q1, SMALL.t, n_fft),
                                       cached_bank(SMALL.q2, SMALL.t, n_fft),
                                       SMALL.log_eps)
        got = extract_vector("scatnet", w, SMALL)
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect)) <= ref.SCATTERING_LOG_TOL

    def test_resamples_input(self, rng):
        w48 = Waveform(bandlimited_noise(rng, 12288, fs=48000, f_hi_hz=6000.0),
                       48000)
        vec = extract_vector("mfcc", w48, SMALL)
        assert vec.shape == (26,) and np.all(np.isfinite(vec))

    def test_unknown_kind(self, rng):
        w = Waveform(bandlimited_noise(rng, 4096), FS)
        with pytest.raises(ScatFeatError):
            extract_vector("plp", w, SMALL)


class TestFeatureFile:
    def rows(self, rng, n=3, dim=5):
        return [FeatureRow(f"u{i}", f"s{i % 2}", "lab",
                           rng.standard_normal(dim)) for i in range(n)]

    def test_roundtrip(self, tmp_path, rng):
        rows = self.rows(rng)
        path = tmp_path / "f.csv"
        write_feature_file(path, "mfcc", rows, "abc123")
        kind, digest, back = read_feature_file(path)
        assert kind == "mfcc" and digest == "abc123"
        assert [r.utterance_id for r in back] == ["u0", "u1", "u2"]
        for a, b in zip(rows, back):
            assert np.array_equal(a.vector, b.vector)  # 17g is round-trip exact

    def test_dimension_mismatch_writes_nothing(self, tmp_path, rng):
        rows = self.rows(rng, n=2) + [FeatureRow("u9", "s1", "lab",
                                                 rng.standard_normal(4))]
        path = tmp_path / "f.csv"
        with pytest.raises(ScatFeatError, match="u9: dim 4 != 5"):
            write_feature_file(path, "mfcc", rows, "abc123")
        assert not path.exists()

    def test_non_finite_writes_nothing(self, tmp_path, rng):
        rows = self.rows(rng)
        rows[1].vector[2] = np.nan
        path = tmp_path / "f.csv"
        with pytest.raises(ScatFeatError, match="u1: non-finite value"):
            write_feature_file(path, "mfcc", rows, "abc123")
        assert not path.exists()

    def test_rewrite_byte_identical(self, tmp_path, rng):
        rows = self.rows(rng)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_feature_file(p1, "mfcc", rows, "abc123")
        write_feature_file(p2, "mfcc", list(reversed(rows)), "abc123")
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_kind_writes_nothing(self, tmp_path, rng):
        path = tmp_path / "f.csv"
        with pytest.raises(ScatFeatError, match="unknown feature kind 'bogus'"):
            write_feature_file(path, "bogus", self.rows(rng), "abc123")
        assert not path.exists()

    def test_unknown_kind_rejected_on_read(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#SCATFEAT v1 kind=bogus dim=1 config_hash=x\nu0,s0,lab,1.0\n")
        with pytest.raises(ScatFeatError, match=r"bad\.csv:1: unknown feature kind 'bogus'"):
            read_feature_file(path)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u0,s0,lab,1.0\n")
        with pytest.raises(ScatFeatError):
            read_feature_file(path)

    def test_row_width_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#SCATFEAT v1 kind=mfcc dim=3 config_hash=x\n"
                        "u0,s0,lab,1.0,2.0\n")
        with pytest.raises(ScatFeatError):
            read_feature_file(path)

    def test_comma_and_quote_in_fields_roundtrip(self, tmp_path, rng):
        rows = [FeatureRow("a,b", "s,1", 'x"y', rng.standard_normal(3)),
                FeatureRow("plain", "s2", "lab", rng.standard_normal(3))]
        path = tmp_path / "quoted.csv"
        write_feature_file(path, "mfcc", rows, "abc123")
        _, _, back = read_feature_file(path)
        assert [(r.utterance_id, r.speaker_id, r.label) for r in back] == \
            [("a,b", "s,1", 'x"y'), ("plain", "s2", "lab")]
        for a, b in zip(rows, back):
            assert np.array_equal(a.vector, b.vector)
        plain = path.read_text().splitlines()[2]
        assert plain == "plain,s2,lab," + ",".join(f"{v:.17g}" for v in rows[1].vector)

    def test_header_field_without_equals(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#SCATFEAT v1 kind=mfcc dim=3 config_hash\n"
                        "u0,s0,lab,1.0,2.0,3.0\n")
        with pytest.raises(ScatFeatError):
            read_feature_file(path)

    def test_non_integer_dim(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#SCATFEAT v1 kind=mfcc dim=three config_hash=x\n"
                        "u0,s0,lab,1.0,2.0,3.0\n")
        with pytest.raises(ScatFeatError):
            read_feature_file(path)

    def test_dim_below_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#SCATFEAT v1 kind=mfcc dim=0 config_hash=x\nu0,s0,lab\n")
        with pytest.raises(ScatFeatError, match=r"bad\.csv:1: dim must be at least 1, got 0"):
            read_feature_file(path)

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text("#SCATFEAT v1 kind=mfcc dim=3 config_hash=x\n"
                        f"u0,s0,lab,1.0,2.0,3.0\nu1,s1,lab,1.0,{value},3.0\n")
        with pytest.raises(ScatFeatError, match=rf"bad\.csv:3: non-finite value '{value}'"):
            read_feature_file(path)

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("#SCATFEAT v1 kind=mfcc dim=3 config_hash=abc\n")
        with pytest.raises(ScatFeatError, match="no feature rows"):
            read_feature_file(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#SCATFEAT v1 kind=mfcc dim=3 config_hash=x\n"
                        "u0,s0,lab,1.0,two,3.0\n")
        with pytest.raises(ScatFeatError):
            read_feature_file(path)


class TestExtractMany:
    def test_collects_errors(self, tmp_path, rng):
        good = tmp_path / "good.wav"
        write_wav_pcm16(good, bandlimited_noise(rng, 4096), FS)
        manifest = [ManifestRow("u_good", str(good), "s1", "x"),
                    ManifestRow("u_bad", str(tmp_path / "missing.wav"), "s2", "x")]
        rows, errors = extract_many(manifest, "mfcc", SMALL, n_workers=2)
        assert [r.utterance_id for r in rows] == ["u_good"]
        assert len(errors) == 1 and errors[0][0] == "u_bad"

    @pytest.mark.parametrize("kind, builds", [("scatnet", 2), ("f-scatnet", 3),
                                              ("mfcc", 0)])
    def test_banks_built_once_before_the_workers(self, tmp_path, rng, monkeypatch,
                                                 kind, builds):
        """On a cold bank cache, each bank the kind needs is built once, not
        once per worker. A slow build gives the workers time to race."""
        manifest = []
        for i in range(6):
            p = tmp_path / f"w{i}.wav"
            write_wav_pcm16(p, bandlimited_noise(rng, 4096), FS)
            manifest.append(ManifestRow(f"u{i}", str(p), f"s{i % 3}", "x"))
        specs = []
        build = filterbank.build_morlet_bank

        def slow_build(spec):
            specs.append(spec)
            time.sleep(0.05)
            return build(spec)

        monkeypatch.setattr(filterbank, "build_morlet_bank", slow_build)
        cached_bank.cache_clear()
        rows, errors = extract_many(manifest, kind, SMALL, n_workers=4)
        assert len(rows) == 6 and errors == []
        assert len(specs) == builds == len(set(specs))

    @pytest.mark.parametrize("kind, n_workers", [("plp", 1), ("scatnet", 0),
                                                 ("scatnet", -1)])
    def test_bad_kind_or_worker_count_raises_first(self, tmp_path, monkeypatch,
                                                  kind, n_workers):
        """Raised before any bank is built or WAV is read: the missing WAV
        would otherwise be collected as a row error."""
        manifest = [ManifestRow("u", str(tmp_path / "missing.wav"), "s", "x")]
        specs = []
        build = filterbank.build_morlet_bank
        monkeypatch.setattr(filterbank, "build_morlet_bank",
                            lambda spec: specs.append(spec) or build(spec))
        cached_bank.cache_clear()
        with pytest.raises(ScatFeatError):
            extract_many(manifest, kind, SMALL, n_workers=n_workers)
        assert specs == []

    def test_default_pool_is_the_usable_cpus(self, tmp_path, rng, monkeypatch):
        """Sized by the affinity mask, not the machine's CPU count."""
        p = tmp_path / "w.wav"
        write_wav_pcm16(p, bandlimited_noise(rng, 4096), FS)
        sizes = []
        pool = features.ThreadPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(features, "ThreadPoolExecutor", recording_pool)
        monkeypatch.setattr(features.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        monkeypatch.setattr(features.os, "cpu_count", lambda: 64)
        rows, errors = extract_many([ManifestRow("u", str(p), "s", "x")], "mfcc", SMALL)
        assert len(rows) == 1 and errors == []
        assert sizes == [3]

    def test_parallel_matches_serial(self, tmp_path, rng):
        manifest = []
        for i in range(4):
            p = tmp_path / f"w{i}.wav"
            write_wav_pcm16(p, bandlimited_noise(rng, 4096), FS)
            manifest.append(ManifestRow(f"u{i}", str(p), f"s{i % 2}", "x"))
        serial, _ = extract_many(manifest, "scatnet", SMALL, n_workers=1)
        parallel, _ = extract_many(manifest, "scatnet", SMALL, n_workers=4)
        for a, b in zip(serial, parallel):
            assert a.utterance_id == b.utterance_id
            assert np.array_equal(a.vector, b.vector)
