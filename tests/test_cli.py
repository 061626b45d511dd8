import hashlib
import json
import os

import numpy as np
import pytest

from ehrpath import trainer
from ehrpath.checkpoint import load_checkpoint, save_checkpoint
from ehrpath.cli import build_parser, main
from ehrpath.corpus import CORPUS_FILE, CODES_FILE, SPLITS_FILE, TABLE_FILE, TOKENS_FILE

GEN_FLAGS = ["--docs", "48", "--vocab", "60", "--codes", "6", "--top-k", "6",
             "--doc-len-min", "6", "--doc-len-max", "10", "--planted-pairs", "2",
             "--cooccur", "0.9", "--min-support", "3", "--seed", "7"]
TRAIN_FLAGS = ["--epochs", "1", "--pretrain-epochs", "1", "--batch-size", "8",
               "--lr", "0.001", "--max-len", "4", "--seed", "1",
               "--d-embed", "8", "--d-code", "8", "--n-filters", "4"]


def digest_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def gen_corpus(tmp_path, sub="corpus"):
    out = tmp_path / sub
    out.mkdir()
    assert main(["gen-data", "--out", str(out)] + GEN_FLAGS) == 0
    return out


class TestGenData:
    def test_writes_the_five_corpus_files(self, tmp_path):
        out = gen_corpus(tmp_path)
        assert sorted(os.listdir(out)) == sorted([CORPUS_FILE, TOKENS_FILE, CODES_FILE,
                                                  TABLE_FILE, SPLITS_FILE])

    def test_same_seed_identical_digests(self, tmp_path):
        a = gen_corpus(tmp_path, "a")
        b = gen_corpus(tmp_path, "b")
        assert digest_dir(a) == digest_dir(b)

    def test_missing_output_dir_exits_2(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "nope")] + GEN_FLAGS)
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_infeasible_config_exits_2(self, tmp_path):
        out = tmp_path / "c"
        out.mkdir()
        rc = main(["gen-data", "--out", str(out), "--docs", "0"])
        assert rc == 2

    def test_explicit_planted_pairs(self, tmp_path):
        out = tmp_path / "c"
        out.mkdir()
        rc = main(["gen-data", "--out", str(out), "--docs", "48", "--vocab", "60",
                   "--codes", "6", "--top-k", "6", "--doc-len-min", "6",
                   "--doc-len-max", "10", "--planted", "0:3:0.9,1:4:0.8",
                   "--min-support", "3", "--seed", "3"])
        assert rc == 0


class TestTrainCommand:
    def test_smoke_writes_checkpoint_and_report(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        rc = main(["train", "--corpus", str(corpus), "--out", str(out)] + TRAIN_FLAGS)
        assert rc == 0
        assert (out / "model.ckpt").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["ablation"] == "none"
        assert len(report["pretrain_losses"]) == 1

    def test_no_copy_tagged_in_report(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        rc = main(["train", "--corpus", str(corpus), "--out", str(out), "--no-copy"]
                  + TRAIN_FLAGS)
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["ablation"] == "no_copy"

    def test_no_arl_drops_scorer_slots_from_checkpoint(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        rc = main(["train", "--corpus", str(corpus), "--out", str(out), "--no-arl"]
                  + TRAIN_FLAGS)
        assert rc == 0
        _, slots = load_checkpoint(str(out / "model.ckpt"))
        assert not any(name.startswith("disc.") for name in slots)

    def test_corrupt_corpus_exits_3(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        (corpus / CORPUS_FILE).write_text("garbage\n")
        out = tmp_path / "run"
        out.mkdir()
        rc = main(["train", "--corpus", str(corpus), "--out", str(out)] + TRAIN_FLAGS)
        assert rc == 3

    def test_config_file_defaults_with_flag_precedence(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        conf = tmp_path / "run.conf"
        conf.write_text("epochs=1\npretrain-epochs=1\nbatch-size=8\nlr=0.001\n"
                        "max-len=4\nd-embed=8\nd-code=8\nn-filters=4\nseed=5\n")
        rc = main(["train", "--corpus", str(corpus), "--out", str(out),
                   "--config", str(conf), "--seed", "9"])
        assert rc == 0
        kv, _ = load_checkpoint(str(out / "model.ckpt"))
        assert kv["seed"] == "9"  # flag beats config file

    def test_flag_names_and_defaults_are_pinned(self):
        _, subparsers = build_parser()
        flags = [(a.option_strings[0], a.default) for a in subparsers["train"]._actions
                 if a.option_strings[0] not in ("-h", "--config", "--corpus", "--out")]
        assert flags == [
            ("--epochs", 200), ("--pretrain-epochs", 10), ("--batch-size", 32),
            ("--lr", 1e-4), ("--max-len", 8), ("--seed", 0), ("--no-copy", False),
            ("--no-arl", False), ("--supervised-weight", 1.0), ("--clip-norm", 5.0),
            ("--candidate-activation", "relu"), ("--dropout", 0.5), ("--d-embed", 100),
            ("--d-code", 100), ("--n-filters", 100),
        ]

    def test_malformed_flag_value_exits_2(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        rc = main(["train", "--corpus", str(corpus), "--out", str(out), "--epochs", "two"])
        assert rc == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        conf = tmp_path / "bad.conf"
        conf.write_text("not-a-key=1\n")
        rc = main(["train", "--corpus", str(corpus), "--out", str(out),
                   "--config", str(conf)])
        assert rc == 2


class TestEvalCommand:
    def _train(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        run = tmp_path / "run"
        run.mkdir()
        assert main(["train", "--corpus", str(corpus), "--out", str(run)]
                    + TRAIN_FLAGS) == 0
        return corpus, run / "model.ckpt"

    def test_eval_writes_predictions_and_ten_metric_lines(self, tmp_path, capsys):
        corpus, ckpt = self._train(tmp_path)
        out = tmp_path / "eval"
        out.mkdir()
        rc = main(["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "metrics.txt").read_text().strip().split("\n")
        assert len(lines) == 10
        keys = [ln.split()[0] for ln in lines]
        assert keys == ["jaccard", "complication", "precision_micro", "precision_macro",
                        "recall_micro", "recall_macro", "f1_micro", "f1_macro",
                        "auc_micro", "auc_macro"]
        assert (out / "predictions.jsonl").exists()

    def test_rerun_identical_report(self, tmp_path):
        corpus, ckpt = self._train(tmp_path)
        outs = []
        for sub in ("e1", "e2"):
            out = tmp_path / sub
            out.mkdir()
            assert main(["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                         "--out", str(out)]) == 0
            outs.append(digest_dir(out))
        assert outs[0] == outs[1]

    def test_perfect_oracle_predictions_score_one(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        bundle_lines = (corpus / CORPUS_FILE).read_text().strip().split("\n")
        splits = json.loads((corpus / SPLITS_FILE).read_text())
        preds = tmp_path / "perfect.jsonl"
        with open(preds, "w") as fh:
            for doc_id in splits["test"]:
                gold = json.loads(bundle_lines[doc_id])["codes"]
                fh.write(json.dumps({"doc": doc_id, "pred": gold, "gold": gold,
                                     "scores": {str(c): 1.0 for c in gold}}) + "\n")
        out = tmp_path / "eval"
        out.mkdir()
        rc = main(["eval", "--corpus", str(corpus), "--from-predictions", str(preds),
                   "--out", str(out)])
        assert rc == 0
        values = dict(ln.split() for ln in (out / "metrics.txt").read_text().strip().split("\n"))
        for key, val in values.items():
            if key in ("complication", "auc_micro", "auc_macro"):
                continue  # data-dependent or degenerate under constant scores
            assert float(val) == pytest.approx(1.0), key

    def test_incompatible_checkpoint_exits_4(self, tmp_path):
        corpus, ckpt = self._train(tmp_path)
        other = tmp_path / "other"
        other.mkdir()
        assert main(["gen-data", "--out", str(other), "--docs", "48", "--vocab", "70",
                     "--codes", "5", "--top-k", "5", "--doc-len-min", "6",
                     "--doc-len-max", "10", "--planted-pairs", "2", "--min-support", "3",
                     "--seed", "2"]) == 0
        out = tmp_path / "eval"
        out.mkdir()
        rc = main(["eval", "--corpus", str(other), "--checkpoint", str(ckpt),
                   "--out", str(out)])
        assert rc == 4

    def test_empty_split_exits_3(self, tmp_path, capsys):
        corpus, ckpt = self._train(tmp_path)
        splits = json.loads((corpus / SPLITS_FILE).read_text())
        splits["validation"] = []
        (corpus / SPLITS_FILE).write_text(json.dumps(splits))
        out = tmp_path / "eval"
        out.mkdir()
        rc = main(["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                   "--split", "validation", "--out", str(out)])
        assert rc == 3
        assert "the validation split is empty" in capsys.readouterr().err
        assert not os.listdir(out)

    @pytest.mark.parametrize("slot, damage", [
        ("gen.lstm.b", lambda w: np.zeros(1)),
        ("gen.copy.W", None),
        ("gen.out.W", lambda w: np.zeros((w.shape[0], w.shape[1] + 1))),
    ], ids=["bias-shape", "missing-slot", "wide-output"])
    def test_slot_disagreeing_with_config_exits_3(self, tmp_path, capsys, slot, damage):
        corpus, ckpt = self._train(tmp_path)
        kv, slots = load_checkpoint(str(ckpt))
        if damage is None:
            del slots[slot]
        else:
            slots[slot] = damage(slots[slot])
        save_checkpoint(str(ckpt), kv, slots)
        out = tmp_path / "eval"
        out.mkdir()
        rc = main(["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                   "--out", str(out)])
        assert rc == 3
        assert slot in capsys.readouterr().err

    def _eval(self, corpus, ckpt, tmp_path):
        out = tmp_path / "eval"
        out.mkdir()
        return main(["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                     "--out", str(out)])

    def test_flipped_slot_byte_exits_3(self, tmp_path, capsys):
        corpus, ckpt = self._train(tmp_path)
        raw = bytearray(ckpt.read_bytes())
        raw[-8] ^= 1  # lowest mantissa bit of the last weight of the last slot
        ckpt.write_bytes(bytes(raw))
        assert self._eval(corpus, ckpt, tmp_path) == 3
        assert "digest" in capsys.readouterr().err

    def test_older_format_exits_3_naming_its_version(self, tmp_path, capsys):
        corpus, ckpt = self._train(tmp_path)
        _magic, rest = ckpt.read_bytes().split(b"\n", 1)
        ckpt.write_bytes(b"CRNNET-CKPT-1\n" + rest)
        assert self._eval(corpus, ckpt, tmp_path) == 3
        assert "CRNNET-CKPT-1" in capsys.readouterr().err

    def test_edited_complication_table_exits_4_naming_it(self, tmp_path, capsys):
        # same code and token dictionaries, so every size still agrees
        corpus, ckpt = self._train(tmp_path)
        before = (corpus / TABLE_FILE).read_text()
        assert main(["build-table", "--corpus", str(corpus), "--or-threshold", "1000000",
                     "--min-support", "3"]) == 0
        assert (corpus / TABLE_FILE).read_text() != before
        capsys.readouterr()
        assert self._eval(corpus, ckpt, tmp_path) == 4
        assert TABLE_FILE in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [
        lambda kv: kv.pop("d_code"),
        lambda kv: kv.update(d_code="abc"),
    ], ids=["missing-key", "malformed-value"])
    def test_bad_config_block_exits_3_naming_key(self, tmp_path, capsys, damage):
        corpus, ckpt = self._train(tmp_path)
        kv, slots = load_checkpoint(str(ckpt))
        damage(kv)
        save_checkpoint(str(ckpt), kv, slots)
        out = tmp_path / "eval"
        out.mkdir()
        rc = main(["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                   "--out", str(out)])
        assert rc == 3
        assert "d_code" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("candidate_activation", "foo"), ("max_len", "0")],
                             ids=["unknown-activation", "zero-max-len"])
    def test_unrunnable_config_value_exits_3_naming_key(self, tmp_path, capsys, key, value):
        # values that parse but cannot build a working model
        corpus, ckpt = self._train(tmp_path)
        kv, slots = load_checkpoint(str(ckpt))
        kv[key] = value
        save_checkpoint(str(ckpt), kv, slots)
        out = tmp_path / "eval"
        out.mkdir()
        rc = main(["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                   "--out", str(out)])
        assert rc == 3
        assert key in capsys.readouterr().err

    def test_eval_without_checkpoint_or_predictions_exits_2(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        out = tmp_path / "eval"
        out.mkdir()
        rc = main(["eval", "--corpus", str(corpus), "--out", str(out)])
        assert rc == 2


class TestCorpusCrossChecks:
    """Corpus files that disagree with each other end with exit 3 before
    anything is trained or scored."""

    def _train(self, corpus, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        return main(["train", "--corpus", str(corpus), "--out", str(out)] + TRAIN_FLAGS)

    @pytest.mark.parametrize("pair", ["0 6", "0 99", "3 3"],
                             ids=["stop-id", "out-of-range", "self-pair"])
    def test_table_pair_outside_code_dictionary_exits_3(self, tmp_path, capsys, pair):
        corpus = gen_corpus(tmp_path)  # six codes: id 6 is STOP
        with open(corpus / TABLE_FILE, "a") as fh:
            fh.write(f"{pair} 2.5\n")
        assert self._train(corpus, tmp_path) == 3
        assert TABLE_FILE in capsys.readouterr().err

    def test_overlapping_splits_exit_3(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        splits = json.loads((corpus / SPLITS_FILE).read_text())
        splits["test"].append(splits["train"][0])
        (corpus / SPLITS_FILE).write_text(json.dumps(splits))
        assert self._train(corpus, tmp_path) == 3
        assert "split" in capsys.readouterr().err

    def test_document_twice_in_one_split_exits_3(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        splits = json.loads((corpus / SPLITS_FILE).read_text())
        splits["train"].append(splits["train"][0])
        (corpus / SPLITS_FILE).write_text(json.dumps(splits))
        assert self._train(corpus, tmp_path) == 3
        assert "split 'train' and 'train'" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "validation"])
    def test_empty_split_exits_3_before_training(self, tmp_path, capsys, monkeypatch, split):
        corpus = gen_corpus(tmp_path)
        splits = json.loads((corpus / SPLITS_FILE).read_text())
        splits[split] = []
        (corpus / SPLITS_FILE).write_text(json.dumps(splits))

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(trainer, "_supervised_epoch", no_training)
        assert self._train(corpus, tmp_path) == 3
        assert f"the {split} split is empty" in capsys.readouterr().err


class TestReportAndBuildTable:
    def test_report_matches_eval_from_predictions(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        lines = (corpus / CORPUS_FILE).read_text().strip().split("\n")
        preds = tmp_path / "p.jsonl"
        with open(preds, "w") as fh:
            rec = json.loads(lines[0])
            fh.write(json.dumps({"doc": 0, "pred": rec["codes"], "gold": rec["codes"],
                                 "scores": {}}) + "\n")
        capsys.readouterr()  # drop the gen-data status line
        rc = main(["report", "--corpus", str(corpus), "--predictions", str(preds)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("jaccard 1.000000")

    def test_build_table_rewrites_with_new_threshold(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        before = (corpus / TABLE_FILE).read_text()
        rc = main(["build-table", "--corpus", str(corpus), "--or-threshold", "1000000",
                   "--min-support", "3"])
        assert rc == 0
        after = (corpus / TABLE_FILE).read_text()
        assert before != after
        assert len(after.strip().split("\n")) == 1  # header only, no pair survives
