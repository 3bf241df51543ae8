"""Command-line pipeline wiring the toolkit modules together.

Subcommands: train, parse, tag, map-tags, delex, eval, filter.  Every run
writes a ``<output>.manifest`` JSON recording the effective configuration
and SHA-256 checksums of the inputs, so runs can be reproduced and
compared byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from . import evalb, model, tagger, tagmap, trainer, transform
from .config import COMMAND_PATHS, PipelineConfig, load_pipeline_config
from .treebank import (ExtendedTag, TreebankFormatError, _read_utf8, read_tag_map_file,
                       read_tagged_corpus_file, read_treebank, serialize_tree,
                       write_tagged_corpus, write_treebank)

log = logging.getLogger(__name__)


class CliError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


def _input_path(cfg: PipelineConfig, key: str) -> Path:
    value = cfg.paths.get(key)
    if not value:
        raise CliError("load", f"missing required path {key!r}")
    path = Path(value)
    if not path.exists():
        raise CliError("load", f"input {key}={value} does not exist")
    return path


def _output_path(cfg: PipelineConfig, key: str, default: str | None = None) -> Path:
    """Output ``key``, its missing parent directories made; a path that
    cannot become a file, or whose manifest cannot, fails at stage
    ``load``, so commands call this before any work."""
    value = cfg.paths.get(key) or default
    if not value:
        raise CliError("load", f"missing required output path {key!r}")
    path = Path(value)
    for target in (path, _manifest_path(path)):
        if target.is_dir():
            raise CliError("load", f"{target}: is a directory")
    ancestor = next(parent for parent in path.parents if parent.exists())
    if not ancestor.is_dir():
        raise CliError("load", f"{path}: {ancestor} is not a directory")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError("load", f"{path}: {exc.strerror}") from exc
    return path


def _manifest_path(output: Path) -> Path:
    return output.with_name(output.name + ".manifest")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(command: str, cfg: PipelineConfig, inputs: dict[str, Path],
                    outputs: list[Path], anchor: Path) -> None:
    payload = {
        "command": command,
        "config": asdict(cfg),
        "inputs": {key: {"path": str(path), "sha256": _sha256(path)}
                   for key, path in sorted(inputs.items())},
        "outputs": [str(p) for p in outputs],
    }
    _manifest_path(anchor).write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=sorted) + "\n", encoding="utf-8")


def _read(cfg: PipelineConfig, inputs: dict[str, Path], key: str, reader, *args):
    """``reader(path, *args)`` on input ``key``, recorded in ``inputs``; a
    malformed file fails at stage ``load`` with its path named once."""
    path = _input_path(cfg, key)
    inputs[key] = path
    try:
        return reader(path, *args)
    except (TreebankFormatError, model.ModelError) as exc:
        raise CliError("load", f"{path}: {exc}") from exc
    except OSError as exc:
        raise CliError("load", f"{path}: {exc.strerror}") from exc


def _token_lines(path: Path) -> list[list[str]]:
    """The whitespace-split tokens of each non-blank line of a text file."""
    return [tokens for tokens in map(str.split, _read_utf8(path).splitlines()) if tokens]


def _tag_map(cfg: PipelineConfig, inputs: dict[str, Path]):
    """The configured tag map table, or the bundled default."""
    if cfg.paths.get("tag_map"):
        return _read(cfg, inputs, "tag_map", read_tag_map_file,
                     cfg.transform.morph_separator)
    return tagmap.default_table()


def _each_tree(trees, step) -> list:
    """``step`` applied to every tree; a tree it rejects with ``ValueError``
    fails at stage ``transform``, named by its index."""
    done = []
    for index, tree in enumerate(trees):
        try:
            done.append(step(tree))
        except ValueError as exc:
            raise CliError("transform", f"tree {index}: {exc}") from exc
    return done


def _prepare_trees(trees, cfg: PipelineConfig):
    """Strip, optionally delexicalize, and binarize a treebank for training."""
    tcfg = cfg.transform

    def prepare(tree):
        tree = transform.strip_annotations(tree, tcfg)
        if cfg.mode == "delexicalized":
            tree = transform.delexicalize_tree(tree, tcfg)
        return transform.binarize(tree)

    return _each_tree(trees, prepare)


def cmd_train(cfg: PipelineConfig) -> int:
    inputs: dict[str, Path] = {}
    checkpoint = _output_path(cfg, "checkpoint")
    log_path = _output_path(cfg, "train_log", default=str(checkpoint) + ".log")
    checkpoint_dir = cfg.paths.get("checkpoint_dir")
    if checkpoint_dir:
        try:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError("load", f"{checkpoint_dir}: {exc.strerror}") from exc
    train_trees = dev_trees = _prepare_trees(
        _read(cfg, inputs, "train_treebank", read_treebank), cfg)
    if cfg.paths.get("dev_treebank"):
        dev_trees = _prepare_trees(_read(cfg, inputs, "dev_treebank", read_treebank), cfg)
    try:
        params = trainer.train(train_trees, dev_trees, cfg.model, cfg.train,
                               log_path=log_path, checkpoint_dir=checkpoint_dir,
                               atomic_tags=(cfg.mode == "lexicalized"),
                               morph_separator=cfg.transform.morph_separator)
    except ValueError as exc:
        raise CliError("train", str(exc)) from exc
    model.save_checkpoint(params, checkpoint)
    _write_manifest("train", cfg, inputs, [checkpoint, log_path], checkpoint)
    print(f"checkpoint written to {checkpoint}")
    return 0


def _gather_sentences(cfg: PipelineConfig, inputs: dict[str, Path],
                      need_tags: bool = True):
    """Input sentences as (tokens, tags) pairs per the configured source.

    With ``need_tags`` false (lexicalized mode), a raw tokens file needs no
    tagger and yields ``tags=None``.
    """
    tcfg = cfg.transform
    if cfg.use_gold_tags:
        def gold_pair(tree):
            stripped = transform.strip_annotations(tree, tcfg)
            return (stripped.leaf_tokens(),
                    [ExtendedTag.parse(p.label, tcfg.morph_separator)
                     for p in stripped.preterminals()])

        return _each_tree(_read(cfg, inputs, "gold_treebank", read_treebank), gold_pair)
    if cfg.paths.get("tagged_corpus"):
        corpus = _read(cfg, inputs, "tagged_corpus", read_tagged_corpus_file,
                       tcfg.morph_separator)
        return [(list(sentence.tokens), list(sentence.tags)) for sentence in corpus]
    if cfg.paths.get("tokens"):
        lines = _read(cfg, inputs, "tokens", _token_lines)
        if not need_tags:
            return [(tokens, None) for tokens in lines]
        tag_model = _read(cfg, inputs, "tagger_model", tagger.load_tagger,
                          tcfg.morph_separator)
        return [(tokens, list(tagger.tag_sentence(tag_model, tokens).tags))
                for tokens in lines]
    raise CliError("load", "no input: set gold_treebank with use_gold_tags, "
                           "tagged_corpus, or tokens plus tagger_model")


def cmd_parse(cfg: PipelineConfig) -> int:
    inputs: dict[str, Path] = {}
    output = _output_path(cfg, "parse_output")
    params = _read(cfg, inputs, "checkpoint", model.load_checkpoint)
    lexicalized = cfg.mode == "lexicalized"
    sentences = _gather_sentences(cfg, inputs, need_tags=not lexicalized)

    if lexicalized:
        tag_lists = [[ExtendedTag(tok) for tok in tokens]
                     for tokens, _ in sentences]
    else:
        if cfg.apply_mapping:
            table = _tag_map(cfg, inputs)
            sentences = [
                (tokens,
                 [tagmap.map_extended_tag(t, table, cfg.composite_separator)
                  for t in tags])
                for tokens, tags in sentences]
        if cfg.transform.keep_morphology:
            tag_lists = [tags for _, tags in sentences]
        else:
            tag_lists = [[ExtendedTag(t.pos) for t in tags]
                         for _, tags in sentences]

    results = trainer.parse_corpus(params, tag_lists)
    lines = []
    failures = 0
    for index, ((tokens, tags), tree) in enumerate(zip(sentences, results)):
        if tree is None:
            failures += 1
            continue
        try:
            if lexicalized and tags is not None:
                # restore real tag labels at the preterminals, which carry
                # embedded word types in lexicalized mode
                tree = transform.relabel_preterminals(tree, [t.pos for t in tags])
            lines.append(serialize_tree(transform.relexicalize_tree(tree, tokens)))
        except ValueError as exc:
            log.warning("sentence %d unusable: %s", index, exc)
            failures += 1
    output.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    _write_manifest("parse", cfg, inputs, [output], output)
    print(f"parsed {len(lines)}/{len(sentences)} sentences "
          f"({failures} failures) -> {output}")
    return 0


def cmd_eval(cfg: PipelineConfig) -> int:
    inputs: dict[str, Path] = {}
    gold = _read(cfg, inputs, "gold_treebank", read_treebank)
    pred = _read(cfg, inputs, "pred_treebank", read_treebank)
    report = _output_path(cfg, "report", default=str(inputs["pred_treebank"]) + ".report")
    try:
        result, rows = evalb.score_corpus_detailed(gold, pred, cfg.eval)
    except ValueError as exc:
        raise CliError("eval", str(exc)) from exc
    evalb.write_report(result, rows, report)
    _write_manifest("eval", cfg, inputs, [report], report)
    print(evalb.format_summary(result))
    return 0


def cmd_tag(cfg: PipelineConfig) -> int:
    sep = cfg.transform.morph_separator
    inputs: dict[str, Path] = {}
    tag_model = None
    outputs: list[Path] = []
    if cfg.paths.get("train_corpus"):
        model_out = _output_path(cfg, "tagger_model")
        corpus = _read(cfg, inputs, "train_corpus", read_tagged_corpus_file, sep)
        try:
            tag_model = tagger.train_tagger(corpus, cfg.tagger_epochs, cfg.tagger_seed, sep)
        except ValueError as exc:
            raise CliError("train", str(exc)) from exc
        tagger.save_tagger(tag_model, model_out)
        outputs.append(model_out)
        print(f"tagger model written to {model_out}")
    if cfg.paths.get("tokens"):
        output = _output_path(cfg, "tagged_output")
        if tag_model is None:
            tag_model = _read(cfg, inputs, "tagger_model", tagger.load_tagger, sep)
        tagged = [tagger.tag_sentence(tag_model, tokens)
                  for tokens in _read(cfg, inputs, "tokens", _token_lines)]
        write_tagged_corpus(tagged, output, sep)
        outputs.append(output)
        print(f"tagged {len(tagged)} sentences -> {output}")
    if not outputs:
        raise CliError("load", "tag needs train_corpus and/or tokens input")
    _write_manifest("tag", cfg, inputs, outputs, outputs[-1])
    return 0


def cmd_map_tags(cfg: PipelineConfig) -> int:
    sep = cfg.transform.morph_separator
    inputs: dict[str, Path] = {}
    output = _output_path(cfg, "tagged_output")
    sentences = _read(cfg, inputs, "tagged_corpus", read_tagged_corpus_file, sep)
    table = _tag_map(cfg, inputs)
    mapped = [tagmap.map_sentence(s, table, cfg.composite_separator)
              for s in sentences]
    write_tagged_corpus(mapped, output, sep)
    _write_manifest("map-tags", cfg, inputs, [output], output)
    print(f"mapped {len(mapped)} sentences -> {output}")
    return 0


def cmd_delex(cfg: PipelineConfig) -> int:
    tcfg = cfg.transform
    inputs: dict[str, Path] = {}
    output = _output_path(cfg, "delex_output")
    if cfg.paths.get("treebank"):
        def delex(tree):
            stripped = transform.strip_annotations(tree, tcfg)
            return stripped if cfg.strip_only else transform.delexicalize_tree(stripped, tcfg)

        done = _each_tree(_read(cfg, inputs, "treebank", read_treebank), delex)
        write_treebank(done, output)
        written = f"{len(done)} trees"
    elif cfg.paths.get("tagged_corpus"):
        sentences = _read(cfg, inputs, "tagged_corpus", read_tagged_corpus_file,
                          tcfg.morph_separator)
        lines = [" ".join(transform.delexicalize_sentence(s, tcfg))
                 for s in sentences]
        output.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        written = f"{len(lines)} sentences"
    else:
        raise CliError("load", "delex needs a treebank or tagged_corpus input")
    _write_manifest("delex", cfg, inputs, [output], output)
    print(f"wrote {written} -> {output}")
    return 0


def cmd_filter(cfg: PipelineConfig) -> int:
    inputs: dict[str, Path] = {}
    output = _output_path(cfg, "filtered_treebank")
    report_path = _output_path(cfg, "filter_report", default=str(output) + ".report")
    trees = _read(cfg, inputs, "treebank", read_treebank)
    lexicon: set[str] = set()
    if cfg.paths.get("latin_lexicon"):
        text = _read(cfg, inputs, "latin_lexicon", _read_utf8)
        lexicon = {line.strip() for line in text.splitlines() if line.strip()}
    kept, report = transform.filter_target_treebank(trees, lexicon)
    write_treebank(kept, output)
    report_path.write_text("".join(line + "\n" for line in report), encoding="utf-8")
    _write_manifest("filter", cfg, inputs, [output, report_path], output)
    print(f"kept {len(kept)}/{len(trees)} trees -> {output}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "parse": cmd_parse,
    "tag": cmd_tag,
    "map-tags": cmd_map_tags,
    "delex": cmd_delex,
    "eval": cmd_eval,
    "filter": cmd_filter,
}

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delexparse",
        description="Delexicalized cross-lingual constituency parsing pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--mode", choices=("delexicalized", "lexicalized"))
        p.add_argument("--use-gold-tags", action="store_true", default=None)
        p.add_argument("--no-mapping", dest="apply_mapping", action="store_false",
                       default=None)
        p.add_argument("--no-morph", dest="keep_morphology", action="store_false",
                       default=None)
        p.add_argument("--seed", type=int)
        p.add_argument("--preset", choices=("desk", "paper"))
        if command == "delex":
            p.add_argument("--strip-only", action="store_true", default=None)
        for key in COMMAND_PATHS[command]:
            p.add_argument("--" + key.replace("_", "-"), dest=key)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    # every flag's dest is the override or path key it sets
    overrides = vars(_build_parser().parse_args(argv))
    command, config_path = overrides.pop("command"), overrides.pop("config")
    paths = {key: overrides.pop(key) for key in COMMAND_PATHS[command]}
    try:
        cfg = load_pipeline_config(config_path, overrides, paths)
    except OSError as exc:
        print(f"error: stage=load: {config_path}: {exc.strerror}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: stage=load: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[command](cfg)
    except CliError as exc:
        print(f"error: stage={exc.stage}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
