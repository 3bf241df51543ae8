"""Command-line pipeline wiring the toolkit modules together.

Subcommands: train, parse, tag, map-tags, delex, eval, filter.  Every run
writes a ``<output>.manifest`` JSON recording the effective configuration
and SHA-256 checksums of the inputs, so runs can be reproduced and
compared byte for byte.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import evalb, model, tagger, tagmap, trainer, transform
from .config import COMMAND_PATHS, PipelineConfig, load_pipeline_config
from .treebank import (ExtendedTag, TaggedSentence, TreebankFormatError, _read_utf8,
                       read_tag_map_file, read_tagged_corpus_file, read_treebank,
                       serialize_tree, well_formedness_problems, write_lines,
                       write_tagged_corpus, write_treebank)


class CliError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@dataclass
class _Run:
    """One command run: its configuration and the files it reads and
    writes, which ``main`` records in the run's manifest."""

    cfg: PipelineConfig
    inputs: dict[str, dict[str, str]] = field(default_factory=dict)
    outputs: list[Path] = field(default_factory=list)
    anchor: Path | None = None  # the output the manifest is named after

    def read(self, key: str, reader, *args):
        """``reader(path, *args)`` on input ``key``, recorded with its
        checksum; a missing, unreadable or malformed file fails at stage
        ``load`` with its path named once."""
        value = self.cfg.paths.get(key)
        if not value:
            raise CliError("load", f"missing required path {key!r}")
        path = Path(value)
        try:
            if not path.exists():
                raise CliError("load", f"input {key}={value} does not exist")
            result = reader(path, *args)
            self.inputs[key] = {"path": str(path), "sha256": _sha256(path)}
        except (TreebankFormatError, model.ModelError) as exc:
            raise CliError("load", f"{path}: {exc}") from exc
        except OSError as exc:
            raise CliError("load", f"{path}: {exc.strerror}") from exc
        return result

    def output(self, key: str, default: str | None = None, anchor: bool = True) -> Path:
        """Output ``key``, recorded, its missing parent directories made; the
        run's manifest is written next to its ``anchor`` output.  A path
        that cannot become a file, or an anchor whose manifest cannot, fails
        at stage ``load``, so commands call this before any work."""
        value = self.cfg.paths.get(key) or default
        if not value:
            raise CliError("load", f"missing required output path {key!r}")
        path = Path(value)
        try:
            for target in (path, _manifest_path(path)) if anchor else (path,):
                if target.is_dir():
                    raise CliError("load", f"{target}: is a directory")
            ancestor = next(parent for parent in path.parents if parent.exists())
            if not ancestor.is_dir():
                raise CliError("load", f"{path}: {ancestor} is not a directory")
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError("load", f"{path}: {exc.strerror}") from exc
        self.outputs.append(path)
        if anchor:
            self.anchor = path
        return path


def _sha256(path: Path) -> str:
    """The file's SHA-256, read in blocks of 64 KiB, small enough to come
    from the heap rather than a fresh mapping each."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _manifest_path(output: Path) -> Path:
    return output.with_name(output.name + ".manifest")


def _write_manifest(command: str, run: _Run) -> None:
    payload = {
        "command": command,
        "config": asdict(run.cfg),
        "inputs": run.inputs,
        "outputs": [str(p) for p in run.outputs],
    }
    write_lines(_manifest_path(run.anchor),
                json.dumps(payload, indent=2, sort_keys=True, default=sorted).splitlines())


def _token_lines(path: Path) -> list[list[str]]:
    """The whitespace-split tokens of each non-blank line of a text file."""
    return [tokens for tokens in map(str.split, _read_utf8(path).splitlines()) if tokens]


def _tag_map(run: _Run):
    """The configured tag map table, or the bundled default."""
    cfg = run.cfg
    if cfg.paths.get("tag_map"):
        return run.read("tag_map", read_tag_map_file, cfg.transform.morph_separator,
                        cfg.composite_separator)
    try:
        return tagmap.default_table(cfg.composite_separator)
    except TreebankFormatError as exc:
        raise CliError("load", f"bundled tag map: {exc}") from exc


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


def _reads(cfg: PipelineConfig) -> str:
    """What a model trained or run under ``cfg`` reads of each token; a
    lexicalized model reads the words, whatever ``keep_morphology`` says."""
    if cfg.mode == "lexicalized":
        return "words"
    return "tags" if cfg.transform.keep_morphology else "pos"


def cmd_train(run: _Run) -> None:
    cfg = run.cfg
    checkpoint_dir = cfg.paths.get("checkpoint_dir")
    if cfg.train.checkpoint_every and not checkpoint_dir:
        raise CliError("load", "checkpoint_every needs a checkpoint_dir path")
    checkpoint = run.output("checkpoint")
    log_path = run.output("train_log", default=str(checkpoint) + ".log", anchor=False)
    if cfg.train.checkpoint_every:
        try:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError("load", f"{checkpoint_dir}: {exc.strerror}") from exc
    train_trees = dev_trees = _prepare_trees(run.read("train_treebank", read_treebank), cfg)
    if cfg.paths.get("dev_treebank"):
        dev_trees = _prepare_trees(run.read("dev_treebank", read_treebank), cfg)
    try:
        params = trainer.train(train_trees, dev_trees, cfg.model, cfg.train,
                               log_path=log_path, checkpoint_dir=checkpoint_dir,
                               reads=_reads(cfg),
                               morph_separator=cfg.transform.morph_separator)
    except ValueError as exc:
        raise CliError("train", str(exc)) from exc
    model.save_checkpoint(params, checkpoint)
    print(f"checkpoint written to {checkpoint}")


def _gather_sentences(run: _Run, reads: str) -> list[TaggedSentence]:
    """The input sentences from the configured source.  For a model that
    reads words a tokens file needs no tagger: each word is its own tag."""
    cfg = run.cfg
    tcfg = cfg.transform
    if cfg.use_gold_tags:
        def gold_sentence(tree):
            stripped = transform.strip_annotations(tree, tcfg)
            problems = well_formedness_problems(stripped)
            if problems:
                raise ValueError(f"gold tags need one preterminal per leaf: {problems[0]}")
            return TaggedSentence(tuple(stripped.leaf_tokens()),
                                  tuple(ExtendedTag.parse(p.label, tcfg.morph_separator)
                                        for p in stripped.preterminals()))

        return _each_tree(run.read("gold_treebank", read_treebank), gold_sentence)
    if cfg.paths.get("tagged_corpus"):
        return run.read("tagged_corpus", read_tagged_corpus_file, tcfg.morph_separator)
    if cfg.paths.get("tokens"):
        lines = run.read("tokens", _token_lines)
        if reads == "words":
            return [TaggedSentence(tuple(tokens), tuple(map(ExtendedTag, tokens)))
                    for tokens in lines]
        tag_model = run.read("tagger_model", tagger.load_tagger, tcfg.morph_separator)
        return [tagger.tag_sentence(tag_model, tokens) for tokens in lines]
    raise CliError("load", "no input: set gold_treebank with use_gold_tags, "
                           "tagged_corpus, or tokens plus tagger_model")


def cmd_parse(run: _Run) -> None:
    cfg = run.cfg
    output = run.output("parse_output")
    params = run.read("checkpoint", model.load_checkpoint)
    # the manifest records this run's config, so a checkpoint that reads
    # something else is refused rather than followed
    wanted = _reads(cfg)
    if params.reads != wanted:
        raise CliError("load", f"{run.inputs['checkpoint']['path']}: the model reads "
                               f"{params.reads}, but this run's mode and morphology "
                               f"settings read {wanted}")
    sentences = _gather_sentences(run, params.reads)
    if cfg.apply_mapping and params.reads != "words":
        table = _tag_map(run)
        sentences = [tagmap.map_sentence(s, table, cfg.composite_separator)
                     for s in sentences]
    tag_lists = [[ExtendedTag(token) for token in s.tokens] if params.reads == "words"
                 else list(s.tags) if params.reads == "tags"
                 else [ExtendedTag(t.pos) for t in s.tags]
                 for s in sentences]
    results = trainer.parse_corpus(params, tag_lists)
    failures = sum(tree is None for tree in results)

    def render(item) -> str:
        sentence, tag_list, tree = item
        if tree is None:
            tree = trainer.fallback_tree(tag_list)
        if params.reads == "words":
            # the preterminals carry the words the model read; restore the tags
            tree = transform.relabel_preterminals(tree, [t.pos for t in sentence.tags])
        return serialize_tree(transform.relexicalize_tree(tree, sentence.tokens))

    lines = _each_tree(zip(sentences, tag_lists, results), render)
    write_lines(output, lines)
    print(f"parsed {len(lines) - failures}/{len(lines)} sentences "
          f"({failures} failures) -> {output}")


def cmd_eval(run: _Run) -> None:
    gold = run.read("gold_treebank", read_treebank)
    pred = run.read("pred_treebank", read_treebank)
    report = run.output("report", default=run.inputs["pred_treebank"]["path"] + ".report")
    try:
        result, rows = evalb.score_corpus_detailed(gold, pred, run.cfg.eval)
    except ValueError as exc:
        raise CliError("eval", str(exc)) from exc
    evalb.write_report(result, rows, report)
    print(evalb.format_summary(result))


def cmd_tag(run: _Run) -> None:
    cfg = run.cfg
    sep = cfg.transform.morph_separator
    training, tagging = cfg.paths.get("train_corpus"), cfg.paths.get("tokens")
    if not (training or tagging):
        raise CliError("load", "tag needs train_corpus and/or tokens input")
    if training:
        model_out = run.output("tagger_model", anchor=not tagging)
    if tagging:
        output = run.output("tagged_output")
    tag_model = None
    if training:
        corpus = run.read("train_corpus", read_tagged_corpus_file, sep)
        try:
            tag_model = tagger.train_tagger(corpus, cfg.tagger_epochs, cfg.tagger_seed, sep)
        except ValueError as exc:
            raise CliError("train", str(exc)) from exc
        tagger.save_tagger(tag_model, model_out)
        print(f"tagger model written to {model_out}")
    if tagging:
        if tag_model is None:
            tag_model = run.read("tagger_model", tagger.load_tagger, sep)
        tagged = [tagger.tag_sentence(tag_model, tokens)
                  for tokens in run.read("tokens", _token_lines)]
        write_tagged_corpus(tagged, output, sep)
        print(f"tagged {len(tagged)} sentences -> {output}")


def cmd_map_tags(run: _Run) -> None:
    output = run.output("tagged_output")
    sep = run.cfg.transform.morph_separator
    sentences = run.read("tagged_corpus", read_tagged_corpus_file, sep)
    table = _tag_map(run)
    mapped = [tagmap.map_sentence(s, table, run.cfg.composite_separator)
              for s in sentences]
    write_tagged_corpus(mapped, output, sep)
    print(f"mapped {len(mapped)} sentences -> {output}")


def cmd_delex(run: _Run) -> None:
    cfg = run.cfg
    tcfg = cfg.transform
    output = run.output("delex_output")
    if cfg.paths.get("treebank"):
        def delex(tree):
            stripped = transform.strip_annotations(tree, tcfg)
            return stripped if cfg.strip_only else transform.delexicalize_tree(stripped, tcfg)

        done = _each_tree(run.read("treebank", read_treebank), delex)
        write_treebank(done, output)
        written = f"{len(done)} trees"
    elif cfg.paths.get("tagged_corpus"):
        sentences = run.read("tagged_corpus", read_tagged_corpus_file, tcfg.morph_separator)
        lines = [" ".join(transform.delexicalize_sentence(s, tcfg))
                 for s in sentences]
        write_lines(output, lines)
        written = f"{len(lines)} sentences"
    else:
        raise CliError("load", "delex needs a treebank or tagged_corpus input")
    print(f"wrote {written} -> {output}")


def cmd_filter(run: _Run) -> None:
    output = run.output("filtered_treebank")
    report_path = run.output("filter_report", default=str(output) + ".report", anchor=False)
    trees = run.read("treebank", read_treebank)
    lexicon: set[str] = set()
    if run.cfg.paths.get("latin_lexicon"):
        text = run.read("latin_lexicon", _read_utf8)
        lexicon = {line.strip() for line in text.splitlines() if line.strip()}
    kept, report = transform.filter_target_treebank(trees, lexicon)
    write_treebank(kept, output)
    write_lines(report_path, report)
    print(f"kept {len(kept)}/{len(trees)} trees -> {output}")


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
    run = _Run(cfg)
    # every record a command builds is acyclic and freed by reference
    # counting, so the cyclic collector's passes would only rescan them
    collecting = gc.isenabled()
    gc.disable()
    try:
        _COMMANDS[command](run)
        _write_manifest(command, run)
    except CliError as exc:
        print(f"error: stage={exc.stage}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every writer names its path in the error
        print(f"error: stage=write: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
