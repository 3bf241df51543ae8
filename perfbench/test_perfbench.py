"""Tests of the benchmark itself: deterministic inputs, output checks that
catch planted defects, and a BENCHMARK.json that matches the code.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
import run
import tracing
import workloads
from delexparse import cli

ROOT = Path(__file__).resolve().parent.parent


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "PIPELINE_TREES", 200)
    prepare = workloads.WORKLOADS[name].prepare
    inputs = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / label).mkdir()
        prepare(seed, tmp_path / label)
        inputs[label] = _files(tmp_path / label)
    assert inputs["a"] == inputs["b"]
    assert inputs["a"] != inputs["c"]


def test_inputs_have_the_fixed_shapes():
    short = workloads.short_treebank(3)
    assert [len(ref.preterminals(t)) for t in short[:9]] == list(range(4, 13))
    assert len({tuple(ref.preterminals(t)) for t in short}) == len(short)
    long = workloads.long_treebank(3)
    assert [len(ref.preterminals(t)) for t in long] == list(workloads.LONG_LENGTHS)
    labels = {s[2] for t in long for s in ref.constituents(ref.render(t))[0]}
    assert labels == set(workloads.LONG_LABELS)
    sentences, gold = workloads.parse_inputs(3)
    lengths = [len(s) for s in sentences]
    assert {n: lengths.count(n) for n in set(lengths)} == workloads.PARSE_BUCKETS
    assert [len(ref.preterminals(t)) for t in gold] == lengths


def _run_once(commands) -> run.Runner:
    runner = run.Runner(commands)
    runner.check(runner.iteration(cli))
    return runner


def _replace_line(path: Path, index: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    if edit is None:
        del lines[index]
    else:
        lines[index] = edit(lines[index])
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _swap_first_leaves(line: str) -> str:
    """Swap the first two distinct leaf tokens of a bracketed line."""
    _, leaves = ref.constituents(line)
    first = leaves[0]
    second = next(leaf for leaf in leaves if leaf != first)
    marker = "\0"
    return (line.replace(f" {first})", f" {marker})", 1)
                .replace(f" {second})", f" {first})", 1)
                .replace(f" {marker})", f" {second})", 1))


@pytest.fixture
def small_parse(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "PARSE_BUCKETS", {10: 3, 40: 1})
    commands = workloads.prepare_parse_long(5, tmp_path)
    runner = _run_once(commands)
    assert (runner.failed, runner.problems) == (0, [])
    return commands


def test_parse_check_counts_a_permuted_leaf(small_parse):
    parse = small_parse[0]
    _replace_line(parse.outputs[0], 1, _swap_first_leaves)
    outcome = parse.check("")
    assert outcome.failed == 1 and "leaves differ" in outcome.problems[0]


def test_parse_check_counts_a_missing_line(small_parse):
    parse = small_parse[0]
    _replace_line(parse.outputs[0], 2, None)
    assert parse.check("").failed == parse.sentences


def test_parse_check_counts_a_suboptimal_tree(small_parse):
    parse = small_parse[0]
    # a flat tree under the root label keeps the leaves but not the optimum
    line = parse.outputs[0].read_text(encoding="utf-8").splitlines()[0]
    spans, _ = ref.constituents(line)
    pre = " ".join(f"({ref.tag_parts(tag)[0]} {token})"
                   for token, tag in workloads.parse_inputs(5)[0][0])
    flat = f"({spans[0][2]} {pre})"
    _replace_line(parse.outputs[0], 0, lambda _: flat)
    outcome = parse.check("")
    assert outcome.failed == 1 and "not the optimum" in outcome.problems[0]


@pytest.mark.xfail(strict=True, reason="parse writes trees with recursive walks and raises "
                   "RecursionError on a tree deeper than about 320 levels")
def test_parse_survives_a_deep_512_token_tree(tmp_path, monkeypatch):
    # On this seed the random-init checkpoint decodes the 512-token sentence
    # into a tree too deep for the recursive walks.  Once this passes, the
    # 512-token bucket can return to PARSE_BUCKETS.
    monkeypatch.setattr(workloads, "PARSE_BUCKETS", {10: 24, 40: 8, 128: 2, 512: 1})
    runner = _run_once(workloads.prepare_parse_long(1410558040, tmp_path))
    assert not [p for p in runner.problems if "RecursionError" in p]
    assert (runner.failed, runner.problems) == (0, [])


def test_eval_check_counts_a_changed_row(small_parse):
    evaluation = small_parse[1]
    _replace_line(evaluation.outputs[0], 5, lambda row: row.replace("\t", "\t9", 1))
    stdout = _summary_line(evaluation.outputs[0])
    assert evaluation.check(stdout).failed == 1


def _summary_line(report: Path) -> str:
    """The eval summary line as the CLI prints it, from a report."""
    values = [line.split("\t")[1] for line in report.read_text().splitlines()[:4]]
    return " ".join(values)


@pytest.fixture
def small_pipeline(tmp_path, monkeypatch):
    for name, value in (("PIPELINE_TREES", 40), ("PIPELINE_MAP_SENTENCES", 30),
                        ("PIPELINE_TAG_TRAIN", 20), ("PIPELINE_TAG_SENTENCES", 10)):
        monkeypatch.setattr(workloads, name, value)
    commands = workloads.prepare_text_pipeline(4, tmp_path)
    runner = _run_once(commands)
    assert (runner.failed, runner.problems) == (0, [])
    return commands


def test_pipeline_checks_count_planted_defects(small_pipeline):
    delex, mapping, tagging, evaluation = small_pipeline
    _replace_line(delex.outputs[0], 3, _swap_first_leaves)
    assert delex.check("").failed == 1
    _replace_line(delex.outputs[0], 0, None)
    assert delex.check("").failed == delex.sentences

    text = mapping.outputs[0].read_text(encoding="utf-8")
    mapping.outputs[0].write_text(text.replace("ART.", "PDAT.", 1), encoding="utf-8")
    assert mapping.check("").failed == 1

    tagged = tagging.outputs[1]
    tagged.write_text(tagged.read_text(encoding="utf-8").split("\n\n", 1)[1],
                      encoding="utf-8")
    assert tagging.check("").failed == tagging.sentences


def test_runner_counts_exits_and_reuses_verdicts(small_pipeline):
    runner = run.Runner(small_pipeline)
    runner.check(runner.iteration(cli))
    runner.check(runner.iteration(cli))
    assert runner.failed == 0
    assert runner.attempted == 2 * sum(c.sentences for c in small_pipeline)
    broken = [workloads.Command(["eval", "--gold-treebank", "/nonexistent"], 5, 5, [],
                                lambda stdout: workloads.Outcome(0, []))]
    runner = run.Runner(broken)
    runner.check(runner.iteration(cli))
    assert (runner.attempted, runner.failed) == (5, 5)


def test_reference_decoder_matches_brute_force():
    import itertools

    import numpy as np

    def trees(i, j):
        if j - i == 1:
            yield [(i, j)]
            return
        for k in range(i + 1, j):
            for left, right in itertools.product(trees(i, k), trees(k, j)):
                yield [(i, j)] + left + right

    rng = np.random.default_rng(0)
    for n in range(1, 6):
        scores = rng.standard_normal((n, n + 1, 3))
        scores[:, :, 0] = 0.0
        brute = max(sum(scores[i, j].max() if (i, j) != (0, n) else scores[i, j, 1:].max()
                        for i, j in spans) for spans in trees(0, n))
        assert ref.best_tree_score(scores) == pytest.approx(brute, abs=1e-12)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = list(tracing.Tracer().metrics(1)) + list(run.TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.metric_units(per_layer)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_short",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
