"""Every input generator is deterministic for a seed."""

import numpy as np

from scatfeat import audio_io, synthetic

import inputs


def _bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.glob("*.wav"))}


def test_emodb_allocation_has_emodb_marginals():
    table = inputs.emodb_allocation()
    assert table.sum() == 535 and table.min() >= 1
    assert list(table.sum(axis=0)) == [inputs.EMODB_CLASS_COUNTS[c]
                                       for c in sorted(inputs.EMODB_CLASS_COUNTS)]
    assert list(table.sum(axis=1)) == [inputs.EMODB_SPEAKER_COUNTS[s]
                                       for s in sorted(inputs.EMODB_SPEAKER_COUNTS)]


def test_emodb_shaped_file_is_deterministic_for_a_seed(tmp_path):
    a = inputs.write_emodb_shaped_file(tmp_path / "a.csv", 5).read_bytes()
    b = inputs.write_emodb_shaped_file(tmp_path / "b.csv", 5).read_bytes()
    c = inputs.write_emodb_shaped_file(tmp_path / "c.csv", 6).read_bytes()
    assert a == b and a != c
    assert len(a.splitlines()) == 1 + 535


def test_emodb_shaped_file_reads_as_392_dim_rows(tmp_path):
    from scatfeat import features
    path = inputs.write_emodb_shaped_file(tmp_path / "e.csv", 1)
    kind, _, rows = features.read_feature_file(path)
    assert kind == "scatnet" and len(rows) == 535
    assert {r.vector.shape for r in rows} == {(inputs.EMODB_DIM,)}
    assert len({r.speaker_id for r in rows}) == 10


def test_am_corpus_is_deterministic_for_a_seed(tmp_path):
    synthetic.write_am_dataset(tmp_path / "a", utterances_per_cell=1, seed=3)
    synthetic.write_am_dataset(tmp_path / "b", utterances_per_cell=1, seed=3)
    synthetic.write_am_dataset(tmp_path / "c", utterances_per_cell=1, seed=4)
    assert _bytes(tmp_path / "a") == _bytes(tmp_path / "b")
    assert _bytes(tmp_path / "a") != _bytes(tmp_path / "c")
    assert len(_bytes(tmp_path / "a")) == 12


def test_mixed_corpus_is_deterministic_and_covers_its_layout(tmp_path):
    for name, seed in (("a", 9), ("b", 9), ("c", 10)):
        inputs.write_mixed_corpus(tmp_path / name, seed, synthetic.am_utterance)
    assert _bytes(tmp_path / "a") == _bytes(tmp_path / "b")
    assert _bytes(tmp_path / "a") != _bytes(tmp_path / "c")
    layout = inputs.mixed_layout()
    assert {(r, e) for _, _, r, e, _ in layout} == {
        (r, e) for r in inputs.MIXED_RATES_HZ for e in inputs.MIXED_ENCODINGS}
    assert {(r, s) for _, _, r, _, s in layout} == {
        (r, s) for r in inputs.MIXED_RATES_HZ for s in inputs.MIXED_SECONDS}
    for speaker, label, rate, encoding, seconds in layout:
        w = audio_io.load_wav(tmp_path / "a" / f"{speaker}_{label}_{rate}_{encoding}.wav")
        assert w.sample_rate_hz == rate
        assert len(w) == int(round(seconds * rate))
        assert np.max(np.abs(w.samples)) > 0.1
