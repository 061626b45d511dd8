import numpy as np
import pytest

from ehrpath.checkpoint import load_checkpoint, save_checkpoint
from ehrpath.errors import DataError
from ehrpath.metrics import PredictionRecord, write_predictions


def sample_slots():
    rng = np.random.default_rng(0)
    return {
        "gen.out.W": rng.normal(size=(5, 3)),
        "gen.bias": rng.normal(size=(4,)),
        "disc.reward.b": np.array([0.25]),
    }


class TestCheckpointFile:
    def test_roundtrip_bitwise(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        kv = {"vocab_size": "60", "num_codes": "6", "no_copy": "0"}
        slots = sample_slots()
        save_checkpoint(path, kv, slots)
        kv2, slots2 = load_checkpoint(path)
        assert kv2 == kv
        assert sorted(slots2) == sorted(slots)
        for name in slots:
            assert np.array_equal(slots2[name], slots[name])
            assert slots2[name].dtype == np.float64

    def test_header_is_versioned(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), {}, sample_slots())
        assert path.read_bytes().startswith(b"CRNNET-CKPT-3\n")

    def test_same_inputs_identical_bytes(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        kv = {"seed": "7"}
        save_checkpoint(a, kv, sample_slots())
        save_checkpoint(b, kv, sample_slots())
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOT-A-CHECKPOINT\n")
        with pytest.raises(DataError):
            load_checkpoint(str(path))

    def test_tampered_config_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), {"seed": "7"}, sample_slots())
        raw = path.read_bytes().replace(b"seed=7", b"seed=8")
        path.write_bytes(raw)
        with pytest.raises(DataError, match="digest"):
            load_checkpoint(str(path))

    def test_truncated_slot_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), {}, sample_slots())
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(DataError):
            load_checkpoint(str(path))

    def test_digest_depends_on_values(self, tmp_path):
        def digest_line(config):
            path = tmp_path / "m.ckpt"
            save_checkpoint(str(path), config, sample_slots())
            return path.read_bytes().split(b"\n")[1]

        assert digest_line({"a": "1"}) != digest_line({"a": "2"})
        assert digest_line({"a": "1", "b": "2"}) == digest_line({"b": "2", "a": "1"})


class TestAtomicWrite:
    """A write that raises partway leaves the file it would replace as it
    was, and leaves no temporary file behind."""

    def _assert_untouched(self, path, before):
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

    def test_failed_checkpoint_save_keeps_old_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), {"seed": "7"}, sample_slots())
        before = path.read_bytes()
        # slots are written in name order: "a" goes out, then "b" cannot be
        # converted to float64
        with pytest.raises(ValueError):
            save_checkpoint(str(path), {"seed": "8"}, {"a": np.ones(3), "b": np.array(["x"])})
        self._assert_untouched(path, before)

    def test_failed_predictions_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        old = PredictionRecord(0, frozenset({1}), frozenset({1}), {1: 0.5})
        write_predictions(str(path), [old])
        before = path.read_bytes()
        # the first record goes out, the second cannot be serialized
        good = PredictionRecord(1, frozenset({2}), frozenset({2}), {2: 0.25})
        bad = PredictionRecord(2, frozenset({1}), frozenset({2}), {1: object()})
        with pytest.raises(TypeError):
            write_predictions(str(path), [good, bad])
        self._assert_untouched(path, before)
