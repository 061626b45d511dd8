"""Command-line pipeline: gen-data, build-table, train, eval, report.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 checkpoint/corpus
compatibility error, 1 anything else. Option precedence is flags over a
--config key=value file over the built-in defaults, and every command is
deterministic given its seed and inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

from . import corpus as corpus_io
from .checkpoint import field_kinds, load_checkpoint, parse_value
from .corpus import (CorpusConfig, atomic_write, build_complication_table, load_corpus_dir,
                     load_corpus_text, synthetic_bundle, write_table)
from .errors import CompatibilityError, ConfigError, DataError
from .metrics import format_metric_table, metric_table, read_predictions, write_predictions
from .trainer import (TRAIN_FLAG_NAMES, TrainConfig, decode_predictions,
                      model_from_checkpoint, save_model, train)

CHECKPOINT_NAME = "model.ckpt"
REPORT_NAME = "report.json"
PREDICTIONS_NAME = "predictions.jsonl"
METRICS_NAME = "metrics.txt"


def _train_options() -> list[tuple[str, str, type]]:
    """(TrainConfig field, argparse dest, field type) for each `train` flag."""
    return [(name, dest, kind) for name, kind in field_kinds(TrainConfig).items()
            if (dest := TRAIN_FLAG_NAMES.get(name, name))]


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, val = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _apply_config_file(subparsers: dict[str, argparse.ArgumentParser], argv: list[str]) -> None:
    """Pre-scan for --config and install its values as defaults on the
    invoked subcommand's parser, so real flags still win. argparse checks a
    flag's choices on the command line only, so they are checked here."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    command = next((a for a in argv if a in subparsers), None)
    if command is None:
        return
    sub = subparsers[command]
    actions = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, val in _read_config_file(known.config).items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ConfigError(f"unknown config key {key!r} for command {command!r}")
        choices = actions[dest].choices
        if choices is not None and val not in choices:
            raise ConfigError(f"{actions[dest].option_strings[0]} must be one of "
                              f"{'|'.join(choices)}, got {val}")
        defaults[dest] = val
    sub.set_defaults(**defaults)


def _require_dir(path: str, role: str) -> None:
    if not os.path.isdir(path):
        raise ConfigError(f"{role} directory {path!r} does not exist")


def _require_out_file(path: str) -> None:
    """A file-valued --out: its directory exists and it is not one itself."""
    if os.path.isdir(path):
        raise ConfigError(f"--out {path!r} is a directory, not a file")
    _require_dir(os.path.dirname(os.path.abspath(path)), "output")


def _number_kinds(p: argparse.ArgumentParser, **unset: type) -> dict[str, type]:
    """Each numeric flag of a subcommand and its kind, taken from its
    default; unset names the kind of a flag that has no default."""
    return {**{a.dest: type(a.default) for a in p._actions if type(a.default) in (int, float)},
            **unset}


def _read_flags(args) -> None:
    """Convert in place each flag of args.kinds that holds a value; one that
    does not parse is an error naming its flag."""
    for dest, kind in getattr(args, "kinds", {}).items():
        raw = getattr(args, dest)
        try:
            setattr(args, dest, raw if raw is None else parse_value(kind, raw))
        except ValueError as exc:
            raise ConfigError(f"--{dest.replace('_', '-')}: cannot read {raw!r} "
                              f"as {kind.__name__}") from exc


def _planted_pairs(raw: str | None, n_pairs: int, cooccur: float, num_codes: int):
    """Either an explicit 'a:b:p,...' list or the first n disjoint pairs
    (0,1), (2,3), ... at a shared co-occurrence probability."""
    if raw:
        pairs = []
        for part in raw.split(","):
            try:
                a, b, p = part.split(":")
                pairs.append((int(a), int(b), float(p)))
            except ValueError as exc:
                raise ConfigError(f"--planted: cannot read {part!r} as int:int:float") from exc
        return tuple(pairs)
    if 2 * n_pairs > num_codes:
        raise ConfigError(f"{n_pairs} disjoint pairs need {2 * n_pairs} codes, have {num_codes}")
    return tuple((2 * i, 2 * i + 1, cooccur) for i in range(n_pairs))


def cmd_gen_data(args) -> int:
    _require_dir(args.out, "output")
    pairs = _planted_pairs(args.planted, args.planted_pairs, args.cooccur, args.codes)
    # the conventional top-K; clamp the default when the synthetic
    # dictionary is smaller, but honor an explicit request verbatim
    top_k = min(CorpusConfig.top_k, args.codes) if args.top_k is None else args.top_k
    cfg = CorpusConfig(
        num_docs=args.docs, vocab_size=args.vocab, num_codes=args.codes, top_k=top_k,
        planted_pairs=pairs, doc_len=(args.doc_len_min, args.doc_len_max), seed=args.seed,
        code_skew=args.code_skew, extra_code_prob=args.extra_code_prob,
        signal_strength=args.signal_strength)
    bundle = synthetic_bundle(cfg, args.or_threshold, args.min_support)
    corpus_io.write_corpus_dir(args.out, bundle)
    print(f"wrote {len(bundle.documents)} documents, {len(bundle.table)} complication pairs "
          f"-> {args.out}")
    return 0


def cmd_build_table(args) -> int:
    _require_dir(args.corpus, "corpus")
    out = args.out or os.path.join(args.corpus, corpus_io.TABLE_FILE)
    _require_out_file(out)
    bundle = load_corpus_text(args.corpus)
    table = build_complication_table(bundle.split_docs("train"), args.or_threshold,
                                     args.min_support)
    write_table(out, table)
    print(f"wrote {len(table)} complication pairs -> {out}")
    return 0


def _fingerprints(corpus_dir: str) -> dict[str, str]:
    """Checkpoint key -> sha256 of one of the corpus files that a model's ids
    and copy candidates depend on. train stores these; eval compares them."""
    out = {}
    for name in (corpus_io.CODES_FILE, corpus_io.TOKENS_FILE, corpus_io.TABLE_FILE):
        with open(os.path.join(corpus_dir, name), "rb") as fh:
            out[f"{name}.sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def cmd_train(args) -> int:
    _require_dir(args.corpus, "corpus")
    _require_dir(args.out, "output")
    bundle = load_corpus_dir(args.corpus)
    fingerprints = _fingerprints(args.corpus)
    cfg = TrainConfig(**{name: getattr(args, dest) for name, dest, _ in _train_options()})
    report, model = train(bundle, cfg)
    ckpt = os.path.join(args.out, CHECKPOINT_NAME)
    save_model(ckpt, model, cfg.seed, fingerprints)
    report.checkpoint_path = ckpt
    with atomic_write(os.path.join(args.out, REPORT_NAME)) as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2)
        fh.write("\n")
    print(f"trained (ablation={report.ablation}) best epoch {report.best_epoch} "
          f"val jaccard {report.best_jaccard:.4f} -> {ckpt}")
    return 0


def _compat_check(stored: dict[str, str], corpus_dir: str) -> None:
    for key, digest in _fingerprints(corpus_dir).items():
        if key not in stored:
            raise DataError(f"checkpoint config lacks key {key!r}")
        if stored[key] != digest:
            raise CompatibilityError(f"corpus file {key.removesuffix('.sha256')} is not the "
                                     "one the checkpoint was trained on (sha256 differs)")


def _report(records, bundle, out: str | None) -> int:
    """Print the metric table of the records, and write it to out if given."""
    text = format_metric_table(metric_table(records, bundle.table, range(bundle.codes.num_real)))
    if out:
        with atomic_write(out) as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_eval(args) -> int:
    _require_dir(args.corpus, "corpus")
    _require_dir(args.out, "output")
    if not args.checkpoint:  # argparse does not require it: a --config file may supply it
        raise ConfigError("eval needs --checkpoint")
    bundle = load_corpus_dir(args.corpus)
    stored, slots = load_checkpoint(args.checkpoint)
    model = model_from_checkpoint(stored, slots)
    _compat_check(stored, args.corpus)
    docs = bundle.split_docs(args.split)
    # records are numbered by corpus line, as prediction files are read
    records = [dataclasses.replace(rec, doc_id=i) for rec, i in
               zip(decode_predictions(model, docs, bundle.table), bundle.splits[args.split])]
    write_predictions(os.path.join(args.out, PREDICTIONS_NAME), records)
    return _report(records, bundle, os.path.join(args.out, METRICS_NAME))


def cmd_report(args) -> int:
    _require_dir(args.corpus, "corpus")
    if args.out:
        _require_out_file(args.out)
    bundle = load_corpus_dir(args.corpus)
    return _report(read_predictions(args.predictions, bundle), bundle, args.out)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="ehrpath",
                                     description="Path-decoding multi-label code predictor")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a corpus directory")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--docs", default=2000)
    p.add_argument("--vocab", default=400)
    p.add_argument("--codes", default=20)
    p.add_argument("--top-k", help=f"default: min({CorpusConfig.top_k}, codes)")
    p.add_argument("--seed", default=CorpusConfig.seed)
    p.add_argument("--doc-len-min", default=CorpusConfig.doc_len[0])
    p.add_argument("--doc-len-max", default=CorpusConfig.doc_len[1])
    p.add_argument("--planted", help="explicit pairs a:b:p,a:b:p,...")
    p.add_argument("--planted-pairs", default=5, help="number of disjoint auto pairs")
    p.add_argument("--cooccur", default=0.9)
    p.add_argument("--or-threshold", default=corpus_io.OR_THRESHOLD)
    p.add_argument("--min-support", default=corpus_io.MIN_SUPPORT)
    p.add_argument("--code-skew", default=CorpusConfig.code_skew)
    p.add_argument("--extra-code-prob", default=CorpusConfig.extra_code_prob)
    p.add_argument("--signal-strength", default=CorpusConfig.signal_strength)
    p.set_defaults(func=cmd_gen_data, kinds=_number_kinds(p, top_k=int))

    p = sub.add_parser("build-table", help="rebuild the complication table from the train split")
    p.add_argument("--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--or-threshold", default=corpus_io.OR_THRESHOLD)
    p.add_argument("--min-support", default=corpus_io.MIN_SUPPORT)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build_table, kinds=_number_kinds(p))

    p = sub.add_parser("train", help="train a model on a corpus directory")
    p.add_argument("--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    defaults = TrainConfig()
    for name, dest, kind in _train_options():
        flag = "--" + dest.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, action="store_true", default=getattr(defaults, name))
        else:
            p.add_argument(flag, default=getattr(defaults, name))
    p.set_defaults(func=cmd_train, kinds={dest: kind for _, dest, kind in _train_options()})

    p = sub.add_parser("eval", help="decode a split and write predictions plus metrics")
    p.add_argument("--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--split", default="test", choices=corpus_io.SPLIT_NAMES)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="metric table for a prediction file")
    p.add_argument("--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser, dict(sub.choices)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        _apply_config_file(subparsers, argv)
        args = parser.parse_args(argv)
        _read_flags(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except CompatibilityError as exc:
        print(f"compatibility error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # malformed flag values and the like
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
