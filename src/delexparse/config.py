"""Declarative pipeline configuration: INI-style sections plus overrides.

A config file groups keys into ``[paths]``, ``[mode]``, ``[model]``,
``[train]``, ``[transform]``, ``[eval]``, and ``[tagger]`` sections.
Command-line flags are the file's last layer: each sets the key it names
in its section.  The ``desk`` / ``paper`` presets pick the base model and
training dimensions.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any

from .evalb import EvalConfig
from .model import DESK_MODEL, PAPER_MODEL, ModelConfig
from .trainer import DESK_TRAIN, PAPER_TRAIN, TrainConfig
from .transform import TransformConfig
from .treebank import COMPOSITE_SEPARATOR, TreebankFormatError, _read_utf8, write_lines

# Path keys each command takes from a config file or its command line.
# Inputs are validated for existence by the commands that consume them.
COMMAND_PATHS = {
    "train": ("train_treebank", "dev_treebank", "checkpoint", "checkpoint_dir",
              "train_log"),
    "parse": ("checkpoint", "gold_treebank", "tagged_corpus", "tokens",
              "tagger_model", "tag_map", "parse_output"),
    "tag": ("train_corpus", "tagger_model", "tokens", "tagged_output"),
    "map-tags": ("tagged_corpus", "tag_map", "tagged_output"),
    "delex": ("treebank", "tagged_corpus", "delex_output"),
    "eval": ("gold_treebank", "pred_treebank", "report"),
    "filter": ("treebank", "latin_lexicon", "filtered_treebank",
               "filter_report"),
}
PATH_KEYS = frozenset(key for keys in COMMAND_PATHS.values() for key in keys)

_MODES = ("delexicalized", "lexicalized")
_MODE_KEYS = ("mode", "preset", "use_gold_tags", "apply_mapping",
              "keep_morphology", "composite_separator")
_PRESETS = ("desk", "paper")
_SECTIONS = ("paths", "mode", "model", "train", "transform", "eval", "tagger")


@dataclass
class PipelineConfig:
    paths: dict[str, str] = field(default_factory=dict)
    mode: str = "delexicalized"
    use_gold_tags: bool = False
    apply_mapping: bool = True
    preset: str = "desk"
    composite_separator: str = COMPOSITE_SEPARATOR
    strip_only: bool = False
    tagger_epochs: int = 5
    tagger_seed: int = 10
    model: ModelConfig = DESK_MODEL
    train: TrainConfig = DESK_TRAIN
    transform: TransformConfig = TransformConfig()
    eval: EvalConfig = EvalConfig()

    def __post_init__(self):
        if not self.composite_separator or any(c.isspace() for c in self.composite_separator):
            raise ValueError("composite_separator must be non-empty and without whitespace, "
                             f"got {self.composite_separator!r}")
        if self.tagger_epochs < 1 or self.tagger_seed < 0:
            raise ValueError("[tagger] epochs must be >= 1 and seed >= 0")


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _section(parser: configparser.ConfigParser, name: str,
             keys: tuple[str, ...] | None = None) -> dict[str, str]:
    section = dict(parser[name]) if parser.has_section(name) else {}
    if keys is not None:
        for key in section:
            if key not in keys:
                raise ValueError(f"unknown [{name}] key {key!r}")
    return section


def _typed(name: str, section: dict[str, str], base) -> dict[str, Any]:
    """Section ``[name]``'s string values, typed as the fields of the
    dataclass ``base`` that they set: a ``[tagger]`` key sets the field
    ``tagger_<key>``, any other key its namesake.  Errors name the section
    and the key."""
    prefix = "tagger_" if name == "tagger" else ""
    kwargs = {}
    for key, value in section.items():
        fld = prefix + key
        if fld not in base.__dataclass_fields__:
            raise ValueError(f"unknown [{name}] key {key!r}")
        kind = type(getattr(base, fld))
        try:
            if kind is bool:
                kwargs[fld] = _parse_bool(value)
            elif kind in (int, float):
                kwargs[fld] = kind(value)
            elif kind in (tuple, frozenset):
                kwargs[fld] = kind(value.split())
            elif kind is dict:
                kwargs[fld] = dict(_label_pair(item) for item in value.split())
            else:
                kwargs[fld] = value
        except ValueError as exc:
            raise ValueError(f"[{name}] {key}: {exc}") from None
    return kwargs


def _label_pair(item: str) -> tuple[str, str]:
    src, eq, tgt = item.partition("=")
    if not (src and eq and tgt):
        raise ValueError(f"item {item!r} is not SOURCE=TARGET")
    return src, tgt


def _ini_value(value) -> str:
    """A field's value as a config file writes it: :func:`_typed` reads it back."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, dict):
        value = [f"{src}={tgt}" for src, tgt in value.items()]
    elif isinstance(value, frozenset):
        value = sorted(value)
    return " ".join(value) if isinstance(value, (list, tuple)) else str(value)


# the config sections each command-line override writes its key into
_OVERRIDE_SECTIONS = {
    "seed": ("model", "train", "tagger"),
    "mode": ("mode",),
    "use_gold_tags": ("mode",),
    "apply_mapping": ("mode",),
    "preset": ("mode",),
    "keep_morphology": ("mode",),
}


def load_pipeline_config(config_path: str | None = None,
                         overrides: dict[str, Any] | None = None,
                         path_overrides: dict[str, str] | None = None,
                         ) -> PipelineConfig:
    """Assemble the effective configuration.

    Precedence, lowest to highest: preset defaults, config file sections,
    then command-line overrides, written into the file's sections as its
    last layer; ``overrides['seed']`` sets the ``[model]``, ``[train]`` and
    ``[tagger]`` seeds at once, and ``strip_only`` has no file key.
    ``keep_morphology`` lives on ``cfg.transform``; ``[mode]`` beats
    ``[transform]`` for it.  A file that cannot be read raises ``OSError``.
    """
    overrides = {key: value for key, value in (overrides or {}).items()
                 if value is not None}
    # values are literal, and no name makes an implicit [DEFAULT] section
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    parser.optionxform = str  # keep keys case-sensitive
    if config_path is not None:
        try:
            parser.read_string(_read_utf8(config_path), source=str(config_path))
        except TreebankFormatError as exc:
            raise ValueError(f"{config_path}: {exc}") from exc
        except configparser.Error as exc:
            raise ValueError(f"malformed config file: {exc}") from exc
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ValueError(f"unknown config section [{name}]")
    flags = {"paths": {key: value for key, value in (path_overrides or {}).items()
                       if value is not None}}
    for key, value in overrides.items():
        for name in _OVERRIDE_SECTIONS.get(key, ()):
            flags.setdefault(name, {})[key] = value
    parser.read_dict(flags)

    # PipelineConfig's own fields: [mode], [tagger] as tagger_*, and strip_only
    mode = _section(parser, "mode", _MODE_KEYS)
    if "keep_morphology" in mode:
        parser.read_dict({"transform": {"keep_morphology": mode.pop("keep_morphology")}})
    base = PipelineConfig()
    top = _typed("mode", mode, base) | _typed("tagger", _section(parser, "tagger"), base)
    if "strip_only" in overrides:
        top["strip_only"] = overrides["strip_only"]
    cfg = replace(base, **top)  # PipelineConfig's checks name their own keys
    if cfg.preset not in _PRESETS:
        raise ValueError(f"unknown preset {cfg.preset!r}")
    if cfg.mode not in _MODES:
        raise ValueError(f"unknown mode {cfg.mode!r}")
    paper = cfg.preset == "paper"
    for name, component in (("model", PAPER_MODEL if paper else DESK_MODEL),
                            ("train", PAPER_TRAIN if paper else DESK_TRAIN),
                            ("transform", TransformConfig()), ("eval", EvalConfig())):
        values = _typed(name, _section(parser, name), component)
        try:
            setattr(cfg, name, replace(component, **values))
        except ValueError as exc:
            raise ValueError(f"[{name}] {exc}") from None
    cfg.paths = _section(parser, "paths")
    for key in cfg.paths:
        if key not in PATH_KEYS:
            raise ValueError(f"unknown path key {key!r}")
    if cfg.use_gold_tags and not cfg.paths.get("gold_treebank"):
        raise ValueError("use_gold_tags requires a gold_treebank path")
    return cfg


# the template's example paths: a train, parse and eval run
_EXAMPLE_PATHS = {
    "train_treebank": "data/source.brackets", "dev_treebank": "data/source_dev.brackets",
    "gold_treebank": "data/target.brackets", "tagged_corpus": "data/target.tags",
    "tag_map": "data/default.tagmap", "checkpoint": "out/parser.ckpt",
    "train_log": "out/train.log", "parse_output": "out/predicted.brackets",
    "report": "out/eval.report",
}


def write_example_config(path: str | Path) -> None:
    """Write a template config file: every key of every section, at its
    default, and example paths.  ``keep_morphology`` is written once,
    under ``[transform]``.  The ``[model]`` and ``[train]`` keys, which
    the preset governs, are written commented out."""
    defaults = asdict(PipelineConfig())
    sections = {
        "paths": {key: _EXAMPLE_PATHS.get(key, "") for key in sorted(PATH_KEYS)},
        "mode": {key: defaults[key] for key in _MODE_KEYS if key != "keep_morphology"},
        **{name: defaults[name] for name in ("model", "train", "transform", "eval")},
        "tagger": {key: defaults["tagger_" + key] for key in ("epochs", "seed")},
    }
    lines = ["# delexparse pipeline configuration: every key at its default.",
             "# [model] and [train] take their values from the preset named in",
             "# [mode]; the desk preset's are shown.  Uncomment a key to set it."]
    for name in _SECTIONS:
        comment = "# " if name in ("model", "train") else ""
        lines += ["", f"[{name}]"]
        lines += [f"{comment}{key} = {_ini_value(value)}".rstrip()
                  for key, value in sections[name].items()]
    write_lines(path, lines)
