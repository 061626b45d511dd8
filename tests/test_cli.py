import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from ehrpath import trainer
from ehrpath.checkpoint import load_checkpoint, save_checkpoint
from ehrpath.cli import build_parser, main
from ehrpath.corpus import (CORPUS_FILE, CODES_FILE, SPLITS_FILE, TABLE_FILE, TOKENS_FILE,
                            load_corpus_dir, write_table)
from ehrpath.generator import generator_slots
from ehrpath.numerics import named_rng

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

    @pytest.mark.parametrize("command", ["gen-data", "build-table", "report"])
    def test_missing_output_dir_exits_2(self, tmp_path, capsys, command):
        # gen-data's --out is a directory; build-table's and report's name a
        # file, whose directory is checked before any work
        if command == "gen-data":
            argv = ["gen-data", "--out", str(tmp_path / "nope")] + GEN_FLAGS
        else:
            corpus = gen_corpus(tmp_path)
            record = json.loads((corpus / CORPUS_FILE).read_text().split("\n")[0])
            preds = tmp_path / "p.jsonl"
            preds.write_text(json.dumps({"doc": 0, "pred": record["codes"],
                                         "gold": record["codes"]}) + "\n")
            argv = {"build-table": ["build-table"],
                    "report": ["report", "--predictions", str(preds)]}[command]
            argv += ["--corpus", str(corpus), "--out", str(tmp_path / "nope" / "out.txt")]
        capsys.readouterr()
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert "output directory" in captured.err and "does not exist" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["build-table", "report"])
    def test_out_naming_a_directory_exits_2_before_loading(self, tmp_path, capsys,
                                                           monkeypatch, command):
        corpus = gen_corpus(tmp_path)
        out = tmp_path / "outdir"
        out.mkdir()
        argv = {"build-table": ["build-table"],
                "report": ["report", "--predictions", str(tmp_path / "p.jsonl")]}[command]

        def no_load(path):
            raise AssertionError("corpus loaded before --out was checked")

        monkeypatch.setattr("ehrpath.cli.load_corpus_dir", no_load)
        capsys.readouterr()
        rc = main(argv + ["--corpus", str(corpus), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"config error: --out {str(out)!r} is a directory, not a file\n"
        assert captured.out == "" and os.listdir(out) == []

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

    @pytest.mark.parametrize("command", ["gen-data", "build-table"])
    @pytest.mark.parametrize("flag, value", [
        ("--or-threshold", "nan"), ("--or-threshold", "inf"), ("--or-threshold", "-1"),
        ("--or-threshold", "0.5"), ("--min-support", "-3")])
    def test_table_setting_out_of_range_exits_2_naming_flag_before_writing(
            self, tmp_path, capsys, command, flag, value):
        if command == "gen-data":
            out = tmp_path / "c"
            out.mkdir()
            argv = ["gen-data", "--out", str(out)] + GEN_FLAGS
        else:
            out = gen_corpus(tmp_path)
            argv = ["build-table", "--corpus", str(out)]
        before = digest_dir(out)
        capsys.readouterr()
        assert main(argv + [flag, value]) == 2
        assert flag in capsys.readouterr().err
        assert digest_dir(out) == before

    @pytest.mark.parametrize("command, flag, value, kind", [
        ("gen-data", "--min-support", "3.5", "int"),
        ("gen-data", "--or-threshold", "x", "float"),
        ("gen-data", "--docs", "1.5", "int"),
        ("gen-data", "--planted-pairs", "two", "int"),
        ("gen-data", "--cooccur", "high", "float"),
        ("gen-data", "--top-k", "", "int"),
        ("gen-data", "--planted", "0:x:0.9", "int:int:float"),
        ("gen-data", "--planted", "0:1:abc", "int:int:float"),
        ("build-table", "--min-support", "3.5", "int"),
        ("build-table", "--or-threshold", "x", "float")])
    def test_unparsable_number_exits_2_naming_flag_before_writing(
            self, tmp_path, capsys, command, flag, value, kind):
        if command == "gen-data":
            out = tmp_path / "c"
            out.mkdir()
            argv = ["gen-data", "--out", str(out)] + GEN_FLAGS
        else:
            out = gen_corpus(tmp_path)
            argv = ["build-table", "--corpus", str(out)]
        before = digest_dir(out)
        capsys.readouterr()
        assert main(argv + [flag, value]) == 2
        assert capsys.readouterr().err == f"config error: {flag}: cannot read {value!r} as {kind}\n"
        assert digest_dir(out) == before


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
            ("--dropout", 0.5), ("--d-embed", 100), ("--d-code", 100), ("--n-filters", 100),
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

    @pytest.mark.parametrize("flag,value", [
        ("--clip-norm", "nan"), ("--clip-norm", "-1"), ("--clip-norm", "0"), ("--clip-norm", "inf"),
        ("--supervised-weight", "nan"), ("--supervised-weight", "-1"),
        ("--supervised-weight", "inf"), ("--d-embed", "0"), ("--d-code", "0"),
        ("--n-filters", "0"), ("--lr", "inf"), ("--lr", "nan"), ("--lr", "0"),
        ("--dropout", "1"), ("--dropout", "nan"), ("--seed", "-1"), ("--epochs", "1.5"),
        ("--batch-size", "x")])
    def test_out_of_range_value_exits_2_naming_flag_before_training(
            self, tmp_path, capsys, monkeypatch, flag, value):
        corpus = gen_corpus(tmp_path)
        out = tmp_path / "run"
        out.mkdir()

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(trainer, "build_model", no_training)
        rc = main(["train", "--corpus", str(corpus), "--out", str(out)] + TRAIN_FLAGS
                  + [flag, value])
        assert rc == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("dropout=1", "--dropout must be in [0, 1), got 1.0"),
        ("clip_norm=big", "--clip-norm: cannot read 'big' as float"),
        ("no_arl=ture", "--no-arl: cannot read 'ture' as bool")],
        ids=["out-of-range", "malformed", "misspelled-bool"])
    def test_config_file_value_exits_2_naming_flag_before_training(
            self, tmp_path, capsys, monkeypatch, line, message):
        # a --config file value passes the same TrainConfig rule as its flag
        corpus = gen_corpus(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(trainer, "build_model", no_training)
        rc = main(["train", "--corpus", str(corpus), "--out", str(out), "--config", str(conf)]
                  + TRAIN_FLAGS)
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_zero_supervised_weight_is_accepted(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        rc = main(["train", "--corpus", str(corpus), "--out", str(out)] + TRAIN_FLAGS
                  + ["--supervised-weight", "0"])
        assert rc == 0


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

    def test_report_reads_back_eval_predictions(self, tmp_path, capsys):
        # eval numbers its records by corpus line, which report checks
        corpus, ckpt = self._train(tmp_path)
        out = tmp_path / "eval"
        out.mkdir()
        assert main(["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
        metrics = (out / "metrics.txt").read_text()
        splits = json.loads((corpus / SPLITS_FILE).read_text())
        written = [json.loads(line)["doc"]
                   for line in (out / "predictions.jsonl").read_text().splitlines()]
        assert written == splits["test"]
        capsys.readouterr()
        assert main(["report", "--corpus", str(corpus),
                     "--predictions", str(out / "predictions.jsonl")]) == 0
        assert capsys.readouterr().out == metrics

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
        rc = main(["report", "--corpus", str(corpus), "--predictions", str(preds),
                   "--out", str(out / "metrics.txt")])
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

    @pytest.mark.parametrize("magic", ["CRNNET-CKPT-1", "CRNNET-CKPT-2"])
    def test_older_format_exits_3_naming_its_version(self, tmp_path, capsys, magic):
        corpus, ckpt = self._train(tmp_path)
        _magic, rest = ckpt.read_bytes().split(b"\n", 1)
        ckpt.write_bytes(magic.encode() + b"\n" + rest)
        assert self._eval(corpus, ckpt, tmp_path) == 3
        assert magic in capsys.readouterr().err

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

    @pytest.mark.parametrize("damage, key", [
        (lambda kv: kv.pop("d_code"), "d_code"),
        (lambda kv: kv.update(d_code="abc"), "d_code"),
        (lambda kv: kv.update(no_copy="maybe"), "no_copy"),
    ], ids=["missing-key", "malformed-value", "misspelled-bool"])
    def test_bad_config_block_exits_3_naming_key(self, tmp_path, capsys, damage, key):
        corpus, ckpt = self._train(tmp_path)
        kv, slots = load_checkpoint(str(ckpt))
        damage(kv)
        save_checkpoint(str(ckpt), kv, slots)
        out = tmp_path / "eval"
        out.mkdir()
        rc = main(["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                   "--out", str(out)])
        assert rc == 3
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("max_len", "0")], ids=["zero-max-len"])
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

    def test_rep_dim_off_the_encoder_exits_3_naming_it_before_decoding(self, tmp_path, capsys,
                                                                          monkeypatch):
        # a config whose decoder width is not the encoder's output width,
        # with decoder slots of that width: every slot agrees with the
        # stored config, but no document can be decoded
        corpus, ckpt = self._train(tmp_path)
        kv, slots = load_checkpoint(str(ckpt))
        gen_cfg = trainer.model_from_checkpoint(kv, slots).gen_cfg
        narrow = dataclasses.replace(gen_cfg, rep_dim=gen_cfg.rep_dim - 2)
        kv["rep_dim"] = str(narrow.rep_dim)
        slots.update(generator_slots(narrow, named_rng(0, "init")))
        save_checkpoint(str(ckpt), kv, slots)

        def no_decode(*args, **kwargs):
            raise AssertionError("decoding started")

        monkeypatch.setattr("ehrpath.cli.decode_predictions", no_decode)
        out = tmp_path / "eval"
        out.mkdir()
        rc = main(["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                   "--out", str(out)])
        assert rc == 3
        assert "rep_dim" in capsys.readouterr().err

    def test_config_file_value_outside_choices_exits_2_naming_flag(self, tmp_path, capsys):
        # argparse checks choices only for values given on the command line
        corpus, ckpt = self._train(tmp_path)
        conf = tmp_path / "eval.conf"
        conf.write_text("split=bogus\n")
        out = tmp_path / "eval"
        out.mkdir()
        rc = main(["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                   "--out", str(out), "--config", str(conf)])
        assert rc == 2
        assert "--split must be one of train|test|validation" in capsys.readouterr().err
        assert not (out / "predictions.jsonl").exists()

    @pytest.mark.parametrize("bad_corpus_line", [False, True],
                             ids=["good-corpus", "bad-corpus-line"])
    def test_eval_without_checkpoint_or_predictions_exits_2(self, tmp_path, bad_corpus_line):
        # the missing checkpoint is found before the corpus is read
        corpus = gen_corpus(tmp_path)
        if bad_corpus_line:
            edit_corpus_line(corpus, "codes", "12")
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

        monkeypatch.setattr(trainer, "_epoch", no_training)
        assert self._train(corpus, tmp_path) == 3
        assert f"the {split} split is empty" in capsys.readouterr().err


class TestReportAndBuildTable:
    def test_report_scores_a_prediction_file(self, tmp_path, capsys):
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

    # (record on line 2, after a good record of document 1, and the words of
    # its error): gen-data's 6 real codes are ids 0-5 and STOP is 6; g holds
    # the gold codes of documents 0 and 1
    BAD_RECORDS = {
        "pred_id_outside": (lambda g: {"doc": 0, "pred": [999, -3], "gold": g[0]}, "real codes"),
        "pred_stop_id": (lambda g: {"doc": 0, "pred": [6], "gold": g[0]}, "real codes"),
        "gold_id_outside": (lambda g: {"doc": 0, "pred": g[0], "gold": g[0] + [99]},
                            "real codes"),
        "score_key_outside": (lambda g: {"doc": 0, "pred": g[0], "gold": g[0],
                                         "scores": {"999": 0.5}}, "real codes"),
        "score_nan": (lambda g: {"doc": 0, "pred": g[0], "gold": g[0],
                                 "scores": {str(g[0][0]): float("nan")}}, "probabilities"),
        "score_above_one": (lambda g: {"doc": 0, "pred": g[0], "gold": g[0],
                                       "scores": {str(g[0][0]): 7.5}}, "probabilities"),
        "score_negative": (lambda g: {"doc": 0, "pred": g[0], "gold": g[0],
                                      "scores": {str(g[0][0]): -0.1}}, "probabilities"),
        "doc_outside": (lambda g: {"doc": 424242, "pred": g[0], "gold": g[0]}, "documents"),
        "doc_negative": (lambda g: {"doc": -1, "pred": g[0], "gold": g[0]}, "documents"),
        "doc_repeated": (lambda g: {"doc": 1, "pred": [], "gold": g[1]}, "twice"),
        "gold_differs": (lambda g: {"doc": 0, "pred": g[0],
                                    "gold": [c for c in range(6) if c not in g[0]]}, "differs"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_RECORDS))
    def test_prediction_record_off_the_corpus_exits_3_naming_its_line(
            self, tmp_path, capsys, case):
        corpus = gen_corpus(tmp_path)
        lines = (corpus / CORPUS_FILE).read_text().strip().split("\n")
        golds = [json.loads(line)["codes"] for line in lines[:2]]
        record, words = self.BAD_RECORDS[case]
        good = {"doc": 1, "pred": golds[1], "gold": golds[1]}
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps(good) + "\n" + json.dumps(record(golds)) + "\n")
        capsys.readouterr()
        assert main(["report", "--predictions", str(preds), "--corpus", str(corpus)]) == 3
        captured = capsys.readouterr()
        assert "line 2:" in captured.err and words in captured.err
        assert captured.out == ""

    def test_build_table_rewrites_with_new_threshold(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        before = (corpus / TABLE_FILE).read_text()
        rc = main(["build-table", "--corpus", str(corpus), "--or-threshold", "1000000",
                   "--min-support", "3"])
        assert rc == 0
        after = (corpus / TABLE_FILE).read_text()
        assert before != after
        assert len(after.strip().split("\n")) == 1  # header only, no pair survives

    # corpus files that parse as JSON but have the wrong shape: (file, text)
    MISSHAPEN = {"splits-list": (SPLITS_FILE, "[1, 2]\n"),
                 "split-not-list": (SPLITS_FILE, '{"train": 5, "test": [], "validation": []}\n'),
                 "corpus-line-list": (CORPUS_FILE, "[1, 2]\n")}

    @pytest.mark.parametrize("case", sorted(MISSHAPEN))
    def test_build_table_on_misshapen_corpus_file_exits_3(self, tmp_path, capsys, case):
        corpus = gen_corpus(tmp_path)
        name, text = self.MISSHAPEN[case]
        (corpus / name).write_text(text)
        assert main(["build-table", "--corpus", str(corpus)]) == 3
        assert "bad corpus directory" in capsys.readouterr().err


def edit_file_lines(corpus, edit, name=TABLE_FILE):
    """Apply edit to the list of lines of a corpus file, complications.txt's
    by default (header first)."""
    path = corpus / name
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("".join(line + "\n" for line in lines))


def perfect_predictions(corpus, tmp_path):
    """A prediction file of one correct record, for document 0."""
    gold = json.loads((corpus / CORPUS_FILE).read_text().split("\n")[0])["codes"]
    preds = tmp_path / "p.jsonl"
    preds.write_text(json.dumps({"doc": 0, "pred": gold, "gold": gold}) + "\n")
    return preds


class TestStrictTable:
    """A complication table's header gives each key once and passes the rule
    of build-table's flags, each pair is listed once, with an odds ratio that
    is finite and at least the header's threshold, and every integer is
    written as str(int) writes it. Each edit below used to load; each must
    end with exit 3 and a message naming the file, the line and the fault.
    gen-data's table here is the header and the pairs 0 1 and 2 3."""

    # case -> (line, words of the message, edit of the table's lines)
    TABLE_EDITS = {
        "header-nan-threshold": (1, "threshold must be finite",
                                 lambda t: t.__setitem__(0, "# threshold=nan min_support=-4")),
        "header-negative-support": (1, "min_support must be >= 0",
                                    lambda t: t.__setitem__(0, "# threshold=2.0 min_support=-4")),
        "header-unknown-key": (1, "unknown header keys ['colour']",
                               lambda t: t.__setitem__(0, t[0] + " colour=blue")),
        "or-nan": (2, "odds ratio nan", lambda t: t.__setitem__(1, "0 1 nan")),
        "or-inf": (2, "odds ratio inf", lambda t: t.__setitem__(1, "0 1 inf")),
        "or-below-threshold": (2, "odds ratio -3.0", lambda t: t.__setitem__(1, "0 1 -3.0")),
        "pair-twice": (4, "listed twice", lambda t: t.append("0 1 99.0")),
        "header-after-pairs": (4, "before the pairs", lambda t: t.append(t[0])),
        # every integer as str(int) writes it, each header key once
        "pair-signed-padded-ids": (2, "'+0' is not an integer in plain decimal",
                                   lambda t: t.__setitem__(1, "+0 01 301.0")),
        "header-padded-support": (1, "'05' is not an integer in plain decimal",
                                  lambda t: t.__setitem__(0, "# threshold=2.0 min_support=05")),
        "header-key-twice": (1, "a header key is given twice", lambda t: t.__setitem__(
            0, "# threshold=2.0 min_support=5 threshold=3.0")),
        # one header, on the first line: a second one used to win
        "header-twice": (2, "the first line",
                         lambda t: t.insert(1, "# threshold=1.0 min_support=0")),
    }

    @pytest.mark.parametrize("case", sorted(TABLE_EDITS))
    def test_table_edit_exits_3_naming_file_and_line(self, tmp_path, capsys, case):
        corpus = gen_corpus(tmp_path)
        line, words, edit = self.TABLE_EDITS[case]
        edit_file_lines(corpus, edit)
        preds = perfect_predictions(corpus, tmp_path)
        capsys.readouterr()
        assert main(["report", "--predictions", str(preds), "--corpus", str(corpus)]) == 3
        err = capsys.readouterr().err
        assert TABLE_FILE in err and f"line {line}:" in err and words in err, err

    def test_written_tables_read_back_unchanged(self, tmp_path):
        # the table gen-data wrote, then one build-table wrote
        corpus = gen_corpus(tmp_path)
        for rebuild in (False, True):
            if rebuild:
                assert main(["build-table", "--corpus", str(corpus), "--or-threshold", "1.5",
                             "--min-support", "2"]) == 0
            written = (corpus / TABLE_FILE).read_text()
            write_table(str(tmp_path / "again.txt"), load_corpus_dir(str(corpus)).table)
            assert (tmp_path / "again.txt").read_text() == written

    def test_build_table_repairs_a_table_that_does_not_load(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path)
        before = (corpus / TABLE_FILE).read_text()
        edit_file_lines(corpus, lambda t: t.append("0 1 x"))
        assert main(["build-table", "--corpus", str(corpus), "--min-support", "3"]) == 0
        assert (corpus / TABLE_FILE).read_text() == before
        load_corpus_dir(str(corpus))


class TestStrictDictionaries:
    """tokens.txt and codes.txt hold one label per line, the line number
    less one its id: each label non-empty, unique and without surrounding
    whitespace. Each edit below used to load, as a dictionary of other
    size or with two ids of one name; each must end with exit 3 and a
    message naming the file and the line. gen-data's codes.txt here holds
    6 labels and tokens.txt 60."""

    # case -> (file, line, edit of its lines)
    DICTIONARY_EDITS = {
        "codes-repeated-label": (CODES_FILE, 7, lambda t: t.append(t[1])),
        "codes-blank-line": (CODES_FILE, 3, lambda t: t.insert(2, "")),
        "codes-padded-label": (CODES_FILE, 1, lambda t: t.__setitem__(0, t[0] + " ")),
        "tokens-repeated-label": (TOKENS_FILE, 6, lambda t: t.__setitem__(5, t[4])),
        "tokens-blank-last-line": (TOKENS_FILE, 61, lambda t: t.append("")),
        "tokens-padded-label": (TOKENS_FILE, 2, lambda t: t.__setitem__(1, " " + t[1])),
    }

    @pytest.mark.parametrize("case", sorted(DICTIONARY_EDITS))
    def test_dictionary_edit_exits_3_naming_file_and_line(self, tmp_path, capsys, case):
        corpus = gen_corpus(tmp_path)
        name, line, edit = self.DICTIONARY_EDITS[case]
        edit_file_lines(corpus, edit, name)
        preds = perfect_predictions(corpus, tmp_path)
        capsys.readouterr()
        assert main(["report", "--predictions", str(preds), "--corpus", str(corpus)]) == 3
        err = capsys.readouterr().err
        assert f"{name} line {line}:" in err and "blank, padded or repeated" in err, err

    def test_written_dictionaries_read_back_unchanged(self, tmp_path):
        corpus = gen_corpus(tmp_path)
        bundle = load_corpus_dir(str(corpus))
        assert (corpus / CODES_FILE).read_text().splitlines() == bundle.codes.labels
        assert (corpus / TOKENS_FILE).read_text().splitlines() == bundle.tokens.labels


def edit_corpus_line(corpus, key, value):
    """Set one field of the third record of corpus.jsonl."""
    path = corpus / CORPUS_FILE
    lines = path.read_text().split("\n")
    record = json.loads(lines[2])
    record[key] = value
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines))


def edit_splits(corpus, edit):
    splits = json.loads((corpus / SPLITS_FILE).read_text())
    edit(splits)
    (corpus / SPLITS_FILE).write_text(json.dumps(splits))


def digit_string_split(splits):
    # ids 0-9 leave their splits and come back as one string of digits,
    # which a reader that iterates it takes for ids 0-9
    for name in splits:
        splits[name] = [i for i in splits[name] if i >= 10]
    splits["test"] = "0123456789"


class TestStrictIdLists:
    """Every id list in the corpus, split and prediction files is a JSON list
    of integers, and a prediction's scores map the decimal text of a code id
    to a JSON number. Each edit below reads as other ids or scores under
    int(...) or float(...) coercion; each must end with exit 3 and a message
    naming the file, and the line for line-delimited files."""

    # case -> (file the message names, the words that locate it, edit)
    CORPUS_EDITS = {
        "codes-digit-string": (CORPUS_FILE, "line 3:",
                               lambda c: edit_corpus_line(c, "codes", "12")),
        "codes-float": (CORPUS_FILE, "line 3:", lambda c: edit_corpus_line(c, "codes", [1.9])),
        "codes-bool": (CORPUS_FILE, "line 3:", lambda c: edit_corpus_line(c, "codes", [True])),
        "tokens-float": (CORPUS_FILE, "line 3:",
                         lambda c: edit_corpus_line(c, "tokens", [3.7, 4.2])),
        "split-digit-string": (SPLITS_FILE, "'test'", lambda c: edit_splits(c, digit_string_split)),
        "split-float-ids": (SPLITS_FILE, "'test'", lambda c: edit_splits(
            c, lambda s: s.update(test=[i + 0.5 for i in s["test"]]))),
        "split-fourth-key": (SPLITS_FILE, "exactly", lambda c: edit_splits(
            c, lambda s: s.update(holdout=[]))),
    }

    @pytest.mark.parametrize("case", sorted(CORPUS_EDITS))
    def test_corpus_edit_exits_3_naming_the_file(self, tmp_path, capsys, case):
        corpus = gen_corpus(tmp_path)
        name, where, edit = self.CORPUS_EDITS[case]
        edit(corpus)
        capsys.readouterr()
        assert main(["build-table", "--corpus", str(corpus)]) == 3
        err = capsys.readouterr().err
        assert name in err and where in err, err

    # case -> the record on line 2, given the gold codes g of each document
    PREDICTION_EDITS = {
        "pred-digit-string": lambda g: {"doc": 0, "pred": "12", "gold": g[0]},
        "doc-float": lambda g: {"doc": 15.7, "pred": g[15], "gold": g[15]},
        # scores: keys the decimal text of a code id, values JSON numbers
        "score-key-space": lambda g: {"doc": 0, "pred": g[0], "gold": g[0],
                                      "scores": {" 1": 0.5}},
        "score-key-leading-zero": lambda g: {"doc": 0, "pred": g[0], "gold": g[0],
                                             "scores": {"01": 0.5}},
        "score-key-plus": lambda g: {"doc": 0, "pred": g[0], "gold": g[0],
                                     "scores": {"+1": 0.5}},
        "score-bool": lambda g: {"doc": 0, "pred": g[0], "gold": g[0], "scores": {"1": True}},
        "score-string": lambda g: {"doc": 0, "pred": g[0], "gold": g[0], "scores": {"2": "0.25"}},
    }

    @pytest.mark.parametrize("case", sorted(PREDICTION_EDITS))
    def test_prediction_edit_exits_3_naming_file_and_line(self, tmp_path, capsys, case):
        corpus = gen_corpus(tmp_path)
        golds = [json.loads(line)["codes"]
                 for line in (corpus / CORPUS_FILE).read_text().strip().split("\n")]
        preds = tmp_path / "p.jsonl"
        good = {"doc": 1, "pred": golds[1], "gold": golds[1]}
        preds.write_text(json.dumps(good) + "\n"
                         + json.dumps(self.PREDICTION_EDITS[case](golds)) + "\n")
        capsys.readouterr()
        assert main(["report", "--predictions", str(preds), "--corpus", str(corpus)]) == 3
        err = capsys.readouterr().err
        assert str(preds) in err and "line 2:" in err, err
