"""Command line stages, exit codes and the pipeline manifest."""

import csv
import hashlib
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import courtnet
from courtnet import graphio, networks, segmenter
from courtnet.cli import COMMANDS, _build_parser, main
from courtnet.synth import DocumentTruth, generate_synthetic_corpus
from courtnet.extract import Outcome
from courtnet.jsonl import iter_jsonl

from oracles import build_parser_reference


def _run(*argv):
    return main([str(a) for a in argv])


def test_print_default_config(capsys):
    # every field, with the defaults the README's "Notable parameters" lists
    assert _run("--print-default-config") == 0
    assert json.loads(capsys.readouterr().out) == {
        "input_dir": None, "corpus_file": None, "jurisdiction": "generic",
        "profile": "generic", "profile_file": None, "jaro_threshold": 0.8,
        "a": 2.0, "b": 1.0, "min_cases": 2, "collab_min": 2, "k": 3,
        "damping": 0.85, "tol": 1e-10, "max_iter": 10000, "seed": 7, "n_docs": 100,
        "mix": {"douai": 0.5, "agen": 0.5}, "output_dir": "out"}


def test_importing_the_cli_leaves_out_the_network_stack():
    # xml.sax.saxutils would pull in urllib.request, http.client, email, ssl
    # and socket at the start of every command; -S keeps site hooks out
    code = ("import sys, courtnet.cli; "
            "print(sorted(m for m in ('xml.sax', 'http.client') if m in sys.modules))")
    src = str(Path(courtnet.__file__).parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"


def test_importing_the_cli_and_the_corpus_leaves_out_hashlib():
    # hashlib maps OpenSSL's libcrypto; only text_doc_id needs it, so a command
    # that reads a corpus without hashing it (flowgraph, say) does not load it
    code = ("import sys, courtnet.cli, courtnet.corpus; "
            "print(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))")
    src = str(Path(courtnet.__file__).parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"


def test_graph_commands_load_neither_the_generator_nor_ingest(tmp_path):
    # networks, rank and communities read extracted.jsonl and nothing before it
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "20") == 0
    assert _run("segment", "--output-dir", out) == 0
    assert _run("extract", "--output-dir", out) == 0
    code = ("import sys\nfrom courtnet.cli import main\n"
            "for command in ('networks', 'rank', 'communities'):\n"
            f"    assert main([command, '--output-dir', {str(out)!r}]) == 0\n"
            "print(sorted(m for m in ('courtnet.synth', 'courtnet.corpus') if m in sys.modules))")
    src = str(Path(courtnet.__file__).parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"
    assert (out / "rankings.csv").exists() and (out / "communities.csv").exists()


def test_missing_subcommand_is_a_config_error(capsys):
    assert _run() == 1
    assert "subcommand" in capsys.readouterr().err


def test_verbose_is_accepted_before_and_after_the_subcommand(tmp_path):
    parse = _build_parser().parse_args
    assert parse(["--verbose", "synth"]).verbose is True
    assert parse(["synth", "--verbose"]).verbose is True
    assert parse(["synth"]).verbose is False
    assert _run("synth", "--verbose", "--output-dir", tmp_path, "--n-docs", "3") == 0
    assert (tmp_path / "corpus.jsonl").exists()


def test_parser_of_one_command_equals_the_full_parser(capsys):
    # the parser whose subcommands share one parent of options gives the help
    # text, error and Namespace of the parser that adds them to each subcommand
    parse = _build_parser().parse_args
    reference = build_parser_reference().parse_args

    def outcome(parse, argv):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    argvs = [[], ["--help"], ["--verbose"], ["--print-default-config"],
             ["bogus"], ["--verbose", "bogus"]]
    for command in COMMANDS:
        argvs += [
            [command], [command, "--help"], ["--verbose", command, "--help"],
            ["--verbose", command, "--k", "4", "--mix", '{"douai": 1}', "--config", "c.json"],
            [command, "--verbose", "--output-dir", "o", "--jaro-threshold", "0.5", "--seed", "3"],
            [command, "--k", "three"], [command, "--bogus"],
        ]
    for argv in argvs:
        assert outcome(parse, argv) == outcome(reference, argv), argv


def test_bad_parameter_values_exit_1(tmp_path):
    assert _run("run", "--output-dir", tmp_path, "--corpus-file",
                tmp_path / "c.jsonl", "--damping", "1.5") == 1
    assert _run("synth", "--output-dir", tmp_path, "--n-docs", "0") == 1
    assert _run("segment", "--output-dir", tmp_path, "--profile", "marseille") == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "-1e-05", "tol must be positive, got -1e-05"),
    ("--tol", "-.5", "tol must be positive, got -0.5"),
    ("--tol", "-nan", "tol must be positive, got nan"),
    ("--a", "-inf", "win weights must be positive and finite, got a=-inf, b=1.0"),
    ("--k", "0", "k must be at least 1, got 0"),
    ("--damping", "1", "damping must be in (0, 1), got 1.0"),
    ("--tol", "0", "tol must be positive, got 0.0"),
    ("--max-iter", "0", "max_iter must be at least 1, got 0"),
], ids=["exponent", "no-integer-part", "nan", "inf", "k", "damping", "tol", "max-iter"])
def test_a_negative_value_may_follow_its_flag_in_any_float_form(tmp_path, capsys, flag, value,
                                                                message):
    # argparse's own pattern (^-\d+$|^-\d*\.\d+$) would read -1e-05 or -inf as an option.
    # Each bad value, dashed or not, is refused by its parameter group before the
    # output directory is touched: an earlier manifest, which a checked command removes, stays.
    (tmp_path / "run_manifest.json").write_text("{}", encoding="utf-8")
    errors = []
    for argv in ([flag, value], [f"{flag}={value}"]):
        assert _run("rank", "--output-dir", tmp_path, *argv) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"courtnet: config error: {message}\n"
    assert [path.name for path in tmp_path.iterdir()] == ["run_manifest.json"]


def test_dash_h_after_a_command_is_still_help(capsys):
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(["rank", "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: courtnet rank")


_BAD_WEIGHT = "win weights must be positive and finite"
# a mass of 1e-17 is below 1.1e-16, so ln(mass + 1) is 0; a mass of 1e308 overflows the weight
_EDGE = ("opposing pair 'agnes garnier', 'anne lambert': win masses 0.0 and {} give the "
         "weight {}; win weights a or b too small or too large")


@pytest.mark.parametrize("flags, config, message", [
    pytest.param(["--a", "inf"], None, _BAD_WEIGHT, id="flag"),
    pytest.param([], '{"a": Infinity}', _BAD_WEIGHT, id="config"),
    pytest.param(["--a", "2", "--b", "1e-17"], None, _EDGE.format("1e-17", "0.0"),
                 id="edge-weight-0"),
    pytest.param(["--a", "1e308", "--b", "1e308"], None, _EDGE.format("1e+308", "inf"),
                 id="edge-weight-inf"),
])
def test_an_infinite_win_weight_exits_1_before_any_write(tmp_path, capsys, flags, config,
                                                          message):
    src = tmp_path / "src"
    assert _run("synth", "--output-dir", src, "--n-docs", "40") == 0
    if config:
        (tmp_path / "config.json").write_text(config, encoding="utf-8")
        flags = ["--config", tmp_path / "config.json"]
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run("run", "--corpus-file", src / "corpus.jsonl", "--output-dir", out, *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"courtnet: config error: {message}")
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_bad_mix_exits_1(tmp_path, capsys):
    assert _run("synth", "--output-dir", tmp_path, "--mix", '{"douai": 0.4}') == 1
    assert "mix" in capsys.readouterr().err


def test_config_file_with_unknown_key_exits_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"k": 2, "bogus": true}', encoding="utf-8")
    assert _run("synth", "--config", config, "--output-dir", tmp_path) == 1
    assert "bogus" in capsys.readouterr().err


def test_synth_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert _run("synth", "--output-dir", a, "--seed", "11", "--n-docs", "20") == 0
    assert _run("synth", "--output-dir", b, "--seed", "11", "--n-docs", "20") == 0
    assert (a / "corpus.jsonl").read_bytes() == (b / "corpus.jsonl").read_bytes()
    assert (a / "truth.jsonl").read_bytes() == (b / "truth.jsonl").read_bytes()


def test_staged_flow_produces_all_artifacts(tmp_path):
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--seed", "3", "--n-docs", "40") == 0
    assert _run("segment", "--output-dir", out) == 0
    assert _run("extract", "--output-dir", out) == 0
    assert _run("networks", "--output-dir", out) == 0
    assert _run("rank", "--output-dir", out) == 0
    assert _run("communities", "--output-dir", out) == 0
    assert _run("flowgraph", "--output-dir", out) == 0
    for name in (
        "corpus.jsonl", "truth.jsonl", "segments.jsonl", "extracted.jsonl",
        "opposing.graphml", "opposing.dot", "collaboration.graphml",
        "cases_k3.graphml", "rankings.csv", "communities.csv",
        "flow_douai.graphml", "flow_agen.graphml",
    ):
        assert (out / name).exists(), name


@pytest.fixture(scope="module")
def all_artifacts(tmp_path_factory):
    """A directory of every stage file of a 30-document corpus, and a directory
    of the corpus's texts as .txt sources."""
    root = tmp_path_factory.mktemp("all")
    out = root / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "30") == 0
    assert _run("run", "--corpus-file", out / "corpus.jsonl", "--output-dir", out) == 0
    sources = root / "sources"
    sources.mkdir()
    for i, line in enumerate((out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()):
        (sources / f"{i}.txt").write_text(json.loads(line)["text"], encoding="utf-8")
    return out, sources


_GRAPH_FILES = {f"{name}.{ext}" for name in ("opposing", "collaboration", "cases_k3")
                for ext in ("graphml", "dot")}
_RUN_FILES = {"segments.jsonl", "extracted.jsonl", *_GRAPH_FILES, "communities.csv",
              "rankings.csv", "run_manifest.json"}


@pytest.mark.parametrize("argv, inputs, writes", [
    (["synth", "--n-docs", "30"], set(), {"corpus.jsonl", "truth.jsonl"}),
    (["ingest", "--input-dir"], set(), {"corpus.jsonl"}),
    (["segment"], {"corpus.jsonl"}, {"segments.jsonl"}),
    (["extract"], {"corpus.jsonl", "segments.jsonl"}, {"extracted.jsonl"}),
    (["networks"], {"extracted.jsonl"}, _GRAPH_FILES),
    (["rank"], {"extracted.jsonl"}, {"rankings.csv"}),
    (["communities"], {"extracted.jsonl"}, {"communities.csv"}),
    (["flowgraph"], {"corpus.jsonl"},
     {f"flow_{jur}.{ext}" for jur in ("agen", "douai") for ext in ("graphml", "dot")}),
    (["run", "--input-dir"], set(), {"corpus.jsonl", *_RUN_FILES}),
    (["run", "--corpus-file"], set(), _RUN_FILES),
], ids=["synth", "ingest", "segment", "extract", "networks", "rank", "communities", "flowgraph",
        "run-input-dir", "run-corpus-file"])
def test_each_command_writes_its_artifacts_and_no_other_file(tmp_path, all_artifacts, argv,
                                                              inputs, writes):
    full, sources = all_artifacts
    out = tmp_path / "out"
    out.mkdir()
    for name in inputs:
        shutil.copy(full / name, out / name)
    if argv[-1] == "--input-dir":
        argv = [*argv, sources]
    elif argv[-1] == "--corpus-file":
        argv = [*argv, full / "corpus.jsonl"]
    assert _run(*argv, "--output-dir", out) == 0
    assert {p.name for p in out.iterdir()} - inputs == writes


def test_extract_reads_segments_jsonl_and_does_not_segment_again(tmp_path, all_artifacts):
    full, _ = all_artifacts
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(full / "corpus.jsonl", out / "corpus.jsonl")
    dropped, *kept = (full / "segments.jsonl").read_text(encoding="utf-8").splitlines(True)
    (out / "segments.jsonl").write_text("".join(kept), encoding="utf-8")
    assert _run("extract", "--output-dir", out) == 0
    ids = [json.loads(line)["doc_id"]
           for line in (out / "extracted.jsonl").read_text(encoding="utf-8").splitlines()]
    assert ids == [json.loads(line)["doc_id"] for line in kept]
    assert json.loads(dropped)["doc_id"] not in ids


def test_stage_with_missing_input_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "10") == 0
    assert _run("extract", "--output-dir", out) == 2
    assert "segments.jsonl" in capsys.readouterr().err
    assert _run("rank", "--output-dir", out) == 2
    assert "extracted.jsonl" in capsys.readouterr().err


def test_run_on_empty_input_dir_exits_2_without_artifacts(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    out = tmp_path / "out"
    assert _run("run", "--input-dir", src, "--output-dir", out) == 2
    assert "error" in capsys.readouterr().err
    assert not (out / "extracted.jsonl").exists()
    assert not (out / "run_manifest.json").exists()


def test_failed_rerun_leaves_no_stale_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", tmp_path, "--n-docs", "10") == 0
    assert _run("run", "--corpus-file", tmp_path / "corpus.jsonl", "--output-dir", out) == 0
    assert (out / "run_manifest.json").exists()
    empty = tmp_path / "empty"
    empty.mkdir()
    assert _run("run", "--input-dir", empty, "--output-dir", out) == 2
    assert "error" in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


def test_every_command_removes_an_earlier_manifest(tmp_path):
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", tmp_path, "--n-docs", "30") == 0
    corpus = tmp_path / "corpus.jsonl"
    assert _run("run", "--corpus-file", corpus, "--output-dir", out) == 0
    # the manifest would still say damping 0.85 beside a ranking made at 0.5
    assert _run("rank", "--output-dir", out, "--damping", "0.5") == 0
    assert not (out / "run_manifest.json").exists()
    assert _run("run", "--corpus-file", corpus, "--output-dir", out) == 0
    assert _run("flowgraph", "--output-dir", out) == 2  # out holds no corpus.jsonl
    assert not (out / "run_manifest.json").exists()


def _artifacts(out):
    """The bytes of every file in out but the manifest, which names the corpus file."""
    return {path.name: path.read_bytes() for path in out.iterdir()
            if path.name != "run_manifest.json"}


def _seed7_corpus_lines(tmp_path):
    assert _run("synth", "--output-dir", tmp_path, "--seed", "7", "--n-docs", "80") == 0
    return (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)


def _under_reversed_id(line):
    row = json.loads(line)
    return json.dumps({**row, "doc_id": row["doc_id"][::-1]}, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("copy", [_under_reversed_id, lambda line: line],
                         ids=["reversed_ids", "verbatim"])
def test_a_repeated_text_counts_once_whatever_its_id(tmp_path, copy):
    # the copy with the smallest doc_id stays, whether copies come first or last
    lines = _seed7_corpus_lines(tmp_path)
    copies = {line: copy(line) for line in lines[::8]}
    corpora = {
        "kept": [min(line, copies.get(line, line), key=lambda l: json.loads(l)["doc_id"])
                 for line in lines],
        "after": lines + list(copies.values()),
        "before": list(copies.values()) + lines,
    }
    got = []
    for corpus, corpus_lines in corpora.items():
        (tmp_path / f"{corpus}.jsonl").write_text("".join(corpus_lines), encoding="utf-8")
        out = tmp_path / corpus
        assert _run("run", "--corpus-file", tmp_path / f"{corpus}.jsonl",
                    "--output-dir", out) == 0
        counts = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))["counts"]
        got.append((counts["docs_ingested"], counts["duplicates_dropped"], _artifacts(out)))
    assert [docs for docs, _, _ in got] == [80, 80, 80]
    assert [dropped for _, dropped, _ in got] == [0, 10, 10]
    assert got[0][2] == got[1][2] == got[2][2]


@pytest.mark.parametrize("command", ["run", "ingest"])
def test_run_without_corpus_source_exits_1(tmp_path, command):
    # a command that ingests checks for its input with the parameters, before
    # it creates the output directory or removes an earlier manifest
    assert _run(command, "--output-dir", tmp_path / "fresh") == 1
    assert not (tmp_path / "fresh").exists()
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "10") == 0
    assert _run("run", "--corpus-file", out / "corpus.jsonl", "--output-dir", out) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert _run(command, "--output-dir", out) == 1
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert "run_manifest.json" in before


def test_ingest_reads_txt_and_rtf(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "one.txt").write_text(
        "APPELANT\nMonsieur A B\nPAR CES MOTIFS\nConfirme le jugement.\n",
        encoding="utf-8",
    )
    (src / "two.rtf").write_bytes(
        rb"{\rtf1\ansi APPELANT\par Madame C D\par PAR CES MOTIFS\par Infirme.\par}"
    )
    (src / "dup.txt").write_text(
        "APPELANT\nMonsieur A B\nPAR CES MOTIFS\nConfirme le jugement.\n",
        encoding="utf-8",
    )
    (src / "notes.md").write_text("ignored", encoding="utf-8")
    out = tmp_path / "out"
    assert _run("ingest", "--input-dir", src, "--output-dir", out,
                "--jurisdiction", "douai") == 0
    lines = (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    # the duplicate text collapses, the markdown file is ignored
    assert len(lines) == 2
    assert all(json.loads(line)["jurisdiction"] == "douai" for line in lines)


def test_ingest_names_a_skipped_file_once(tmp_path, caplog):
    src = tmp_path / "src"
    src.mkdir()
    (src / "good.txt").write_text("APPELANT\nPAR CES MOTIFS\nConfirme.\n", encoding="utf-8")
    (src / "bad.txt").write_bytes(b"APPELANT \xff\n")
    with caplog.at_level(logging.WARNING, logger="courtnet.cli"):
        assert _run("ingest", "--input-dir", src, "--output-dir", tmp_path / "out") == 0
    [message] = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
    assert message == f"skipping {src / 'bad.txt'}: not valid UTF-8"


def test_run_manifest_matches_truth(tmp_path):
    out = tmp_path / "out"
    n = 80
    assert _run("synth", "--output-dir", out, "--seed", "19", "--n-docs", n) == 0
    assert _run("run", "--corpus-file", out / "corpus.jsonl",
                "--output-dir", out) == 0
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    counts = manifest["counts"]
    truth = {t.doc_id: t for _, t in iter_jsonl(out / "truth.jsonl", DocumentTruth)}
    want_outcomes = {o.value: 0 for o in Outcome}
    for entry in truth.values():
        want_outcomes[entry.outcome.value] += 1
    assert counts["docs_ingested"] == n
    assert counts["docs_extracted"] == n
    assert counts["segmentation_failures"] == 0
    assert counts["outcomes"] == want_outcomes
    want_skipped = sum(
        1 for e in truth.values()
        if not (e.appellant_lawyers or e.appellee_lawyers)
    )
    assert counts["docs_skipped_no_lawyers"] == want_skipped
    det = [e for e in truth.values() if e.outcome is not Outcome.UNDETERMINED]
    want_rate = sum(1 for e in det if e.outcome is Outcome.APPELLEE_WINS) / len(det)
    assert abs(counts["rejection_rate"] - want_rate) < 1e-12


def test_case_edges_shrink_with_k(tmp_path):
    out2 = tmp_path / "k2"
    out3 = tmp_path / "k3"
    assert _run("synth", "--output-dir", out2, "--seed", "7", "--n-docs", "60") == 0
    assert _run("run", "--corpus-file", out2 / "corpus.jsonl",
                "--output-dir", out2, "--k", "2") == 0
    assert _run("run", "--corpus-file", out2 / "corpus.jsonl",
                "--output-dir", out3, "--k", "3") == 0
    edges2 = json.loads((out2 / "run_manifest.json").read_text())["counts"]["case_edges"]
    edges3 = json.loads((out3 / "run_manifest.json").read_text())["counts"]["case_edges"]
    assert edges2 >= edges3
    assert (out2 / "cases_k2.graphml").exists()
    assert (out3 / "cases_k3.graphml").exists()


def test_dominant_lawyer_tops_the_win_rates(tmp_path):
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--seed", "29", "--n-docs", "400") == 0
    assert _run("run", "--corpus-file", out / "corpus.jsonl", "--output-dir", out) == 0
    _, truth = generate_synthetic_corpus(seed=29, n_docs=400)
    import csv

    with open(out / "rankings.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rated = [(float(r["win_rate"]), r["lawyer_canonical"]) for r in rows if r["win_rate"]]
    top_rate, top_name = max(rated)
    assert top_name == truth.dominant_lawyer
    assert top_rate == 1.0
    assert sum(1 for rate, _ in rated if rate == top_rate) == 1


def test_config_value_of_the_wrong_type_exits_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"k": "3"}', encoding="utf-8")
    assert _run("networks", "--config", config, "--output-dir", tmp_path) == 1
    err = capsys.readouterr().err
    assert str(config) in err
    assert "k must be int" in err


def test_removed_workers_key_exits_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"workers": 4}', encoding="utf-8")
    assert _run("segment", "--config", config, "--output-dir", tmp_path) == 1
    assert "workers" in capsys.readouterr().err


def test_truncated_corpus_exits_2_naming_the_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "5") == 0
    corpus = out / "corpus.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    corpus.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2], encoding="utf-8")
    assert _run("run", "--corpus-file", corpus, "--output-dir", out) == 2
    assert f"{corpus}:3:" in capsys.readouterr().err


def test_corpus_line_without_jurisdiction_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "5") == 0
    corpus = out / "corpus.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[1])
    del row["jurisdiction"]
    lines[1] = json.dumps(row) + "\n"
    corpus.write_text("".join(lines), encoding="utf-8")
    assert _run("segment", "--output-dir", out) == 2
    err = capsys.readouterr().err
    assert f"{corpus}:2:" in err
    assert "jurisdiction" in err


@pytest.mark.parametrize("label", ["../escaped", "x/y", "nul\0byte", "x" * 300])
def test_flowgraph_refuses_a_jurisdiction_that_cannot_name_a_file(tmp_path, capsys, label):
    # flow_<jurisdiction>.* would leave the output directory, name no file, or be a
    # name longer than the 255 bytes most file systems hold;
    # the empty label is a file name and passes, but nothing may be written
    out = tmp_path / "o"
    assert _run("synth", "--output-dir", out, "--n-docs", "6") == 0
    corpus = out / "corpus.jsonl"
    rows = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
    rows[0]["jurisdiction"] = ""
    rows[2]["jurisdiction"] = label
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert _run("flowgraph", "--output-dir", out) == 2
    err = capsys.readouterr().err
    assert "input error" in err and str(corpus) in err and rows[2]["doc_id"] in err
    assert not list(tmp_path.rglob("flow_*"))


def _with_field(path, lineno, keys, value):
    """The file's text with the field at keys of line lineno's object set to value."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[lineno - 1])
    target = row
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    lines[lineno - 1] = json.dumps(row) + "\n"
    return "".join(lines)


def test_lone_surrogate_in_corpus_exits_2_naming_the_line(tmp_path, capsys):
    # a \ud800 escape decodes to a string that no UTF-8 artifact can hold
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "5") == 0
    corpus = tmp_path / "corpus.jsonl"
    lines = (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[1])
    at = row["text"].index("Me ") + 5  # inside the first lawyer's name
    row["text"] = row["text"][:at] + "\ud800" + row["text"][at:]
    lines[1] = json.dumps(row) + "\n"
    corpus.write_text("".join(lines), encoding="utf-8")
    run_out = tmp_path / "run"
    assert _run("run", "--corpus-file", corpus, "--output-dir", run_out) == 2
    assert f"{corpus}:2: lone surrogate" in capsys.readouterr().err
    assert not run_out.exists() or not any(run_out.iterdir())
    # a paired escape is one character and reads as it did
    row["text"] = row["text"].replace("\ud800", "\U0001f600")
    lines[1] = json.dumps(row) + "\n"
    corpus.write_text("".join(lines), encoding="utf-8")
    assert _run("run", "--corpus-file", corpus, "--output-dir", run_out) == 0


def test_lone_surrogate_in_config_exits_1_naming_the_key(tmp_path, capsys):
    # no UTF-8 artifact could hold it, so it is refused before any stage writes
    sources = tmp_path / "sources"
    sources.mkdir()
    (sources / "a.txt").write_text("APPELANT\nPAR CES MOTIFS\nConfirme.\n", encoding="utf-8")
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    for text, key in (('{"jurisdiction": "\\ud800"}', "jurisdiction"),
                      ('{"mix": {"\\udc00": 1.0}}', "mix")):
        config.write_text(text, encoding="utf-8")
        assert _run("run", "--config", config, "--input-dir", sources, "--output-dir", out) == 1
        assert f"config error: config file {config}: {key}: lone surrogate" in (
            capsys.readouterr().err)
        assert not out.exists()
    assert _run("run", "--jurisdiction", "\ud800", "--input-dir", sources,
                "--output-dir", out) == 1
    err = capsys.readouterr().err
    assert "config error: jurisdiction: lone surrogate '\\ud800'" in err
    assert "config file" not in err
    assert not out.exists()


def test_a_path_from_non_utf8_argv_bytes_serves_the_staged_commands(tmp_path, capsys):
    # argv's byte 0xff arrives as '\udcff'; such a path never goes into an artifact,
    # but run_manifest.json records every field, so only `run` refuses it
    if sys.getfilesystemencoding() != "utf-8" or sys.platform == "win32":
        pytest.skip("needs a POSIX file system with UTF-8 file names")
    out = tmp_path / "out\udcff"
    assert _run("synth", "--output-dir", out, "--n-docs", "20") == 0
    for command in ("segment", "extract", "networks", "rank", "communities", "flowgraph"):
        assert _run(command, "--output-dir", out) == 0, command
    assert (out / "rankings.csv").exists() and (out / "communities.csv").exists()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((out / "corpus.jsonl").read_bytes())
    run_out = tmp_path / "run\udcff"
    assert _run("run", "--corpus-file", corpus, "--output-dir", run_out) == 1
    assert "config error: output_dir: lone surrogate '\\udcff'" in capsys.readouterr().err
    assert not run_out.exists()


def test_corrupt_stage_files_exit_2_naming_the_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "20") == 0
    assert _run("segment", "--output-dir", out) == 0
    assert _run("extract", "--output-dir", out) == 0
    segments, extracted = out / "segments.jsonl", out / "extracted.jsonl"
    with_counsel = next(
        i for i, line in enumerate(extracted.read_text(encoding="utf-8").splitlines(), 1)
        if json.loads(line)["appellant_lawyers"])
    cases = [
        (segments, '{"doc_id": "x"}\n', "extract", ":1: missing key 'segments'"),
        (extracted, "\n[1, 2]\n", "rank", ":2:"),
        (extracted, _with_field(extracted, with_counsel, ["appellant_lawyers", 0, "canonical"], 5),
         "rank", f":{with_counsel}: canonical"),
        (segments, _with_field(segments, 1, ["segments", -1, "end"], "9999"),
         "extract", ":1: end"),
        (extracted, _with_field(extracted, 3, ["outcome"], "bogus"),
         "rank", ":3: outcome"),
        (segments, _with_field(segments, 1, ["segments", -1],
                               {"name": "conclusion", "start": 1000000000, "end": -3}),
         "extract", ":1: segment conclusion"),
        (segments, _with_field(segments, 2, ["segments", -1, "end"], 1000000000),
         "extract", ":2: segment conclusion"),
    ]
    for path, text, stage, where in cases:
        good = path.read_text(encoding="utf-8")
        path.write_text(text, encoding="utf-8")
        assert _run(stage, "--output-dir", out) == 2, where
        assert f"{path}{where}" in capsys.readouterr().err
        path.write_text(good, encoding="utf-8")


@pytest.mark.parametrize("command, name, code", [
    ("segment", "corpus.jsonl", 2),
    ("extract", "segments.jsonl", 2),
    ("networks", "extracted.jsonl", 2),
    ("run", "segments.jsonl", 1),
    ("run", "rankings.csv", 1),
])
def test_stage_file_that_is_a_directory_exits_naming_it(tmp_path, capsys, command, name, code):
    # an input that cannot be read exits 2, an artifact that cannot be written 1
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "5") == 0
    (out / name).unlink(missing_ok=True)
    (out / name).mkdir()
    corpus = ["--corpus-file", out / "corpus.jsonl"] if command == "run" else []
    assert _run(command, "--output-dir", out, *corpus) == code
    err = capsys.readouterr().err
    assert str(out / name) in err
    assert ("input error" in err) == (code == 2)


def test_a_repeated_doc_id_in_extracted_jsonl_exits_2_naming_the_line(tmp_path, capsys):
    # the repeat would count its case twice in rankings.csv
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "20") == 0
    assert _run("segment", "--output-dir", out) == 0
    assert _run("extract", "--output-dir", out) == 0
    extracted = out / "extracted.jsonl"
    lines = extracted.read_text(encoding="utf-8").splitlines(keepends=True)
    extracted.write_text("".join(lines + lines[:1]), encoding="utf-8")
    for command in ("networks", "rank", "communities"):
        assert _run(command, "--output-dir", out) == 2, command
        assert f"{extracted}:{len(lines) + 1}: doc_id" in capsys.readouterr().err


def test_doc_ids_xml_cannot_hold_exit_2_naming_the_line(tmp_path, capsys):
    # graphio.xml_safe would write a\x01 and a\x02 as one GraphML node id; a failed
    # run removes the old manifest and leaves the other files as they were
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "20") == 0
    assert _run("run", "--corpus-file", out / "corpus.jsonl", "--output-dir", out) == 0
    before = _artifacts(out)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text((out / "corpus.jsonl").read_text(encoding="utf-8"), encoding="utf-8")
    corpus.write_text(_with_field(corpus, 2, ["doc_id"], "a\x02"), encoding="utf-8")
    corpus.write_text(_with_field(corpus, 3, ["doc_id"], "a\x01"), encoding="utf-8")
    assert _run("run", "--corpus-file", corpus, "--output-dir", out) == 2
    assert (f"{corpus}:2: doc_id 'a\\x02' holds a character XML 1.0 forbids"
            in capsys.readouterr().err)
    assert not (out / "run_manifest.json").exists()
    assert _artifacts(out) == before


def test_lawyer_ids_xml_cannot_hold_exit_2_naming_the_line(tmp_path, capsys):
    # two canonical names that differ only in \x01 and \x02 would be one
    # GraphML node id, and --min-cases 1 makes every lawyer a node
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "20") == 0
    assert _run("segment", "--output-dir", out) == 0
    assert _run("extract", "--output-dir", out) == 0
    extracted = out / "extracted.jsonl"
    with_counsel = [
        i for i, line in enumerate(extracted.read_text(encoding="utf-8").splitlines(), 1)
        if json.loads(line)["appellant_lawyers"]]
    for lineno, control in zip(with_counsel, "\x01\x02"):
        extracted.write_text(_with_field(extracted, lineno, ["appellant_lawyers", 0, "canonical"],
                                         f"anne mar{control}tin"), encoding="utf-8")
    for command in ("networks", "rank", "communities"):
        assert _run(command, "--output-dir", out, "--min-cases", "1") == 2, command
        assert (f"{extracted}:{with_counsel[0]}: lawyer 'anne mar\\x01tin' holds a character"
                in capsys.readouterr().err)
    assert not (out / "opposing.graphml").exists()


def test_a_repeated_doc_id_in_segments_jsonl_exits_2_naming_the_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "5") == 0
    assert _run("segment", "--output-dir", out) == 0
    segments = out / "segments.jsonl"
    lines = segments.read_text(encoding="utf-8").splitlines(keepends=True)
    segments.write_text("".join(lines + lines[:1]), encoding="utf-8")
    assert _run("extract", "--output-dir", out) == 2
    assert f"{segments}:{len(lines) + 1}: doc_id" in capsys.readouterr().err
    assert not (out / "extracted.jsonl").exists()


def test_a_corpus_line_reusing_a_doc_id_with_another_text_exits_2(tmp_path, capsys):
    # an identical repeated line is still a dropped duplicate
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "5") == 0
    corpus = out / "corpus.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    corpus.write_text("".join(lines + lines[:1]), encoding="utf-8")
    assert _run("run", "--corpus-file", corpus, "--output-dir", out) == 0
    counts = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))["counts"]
    assert (counts["docs_ingested"], counts["duplicates_dropped"]) == (5, 1)
    other = {**json.loads(lines[0]), "text": "Autre texte."}
    corpus.write_text("".join(lines) + json.dumps(other) + "\n", encoding="utf-8")
    assert _run("run", "--corpus-file", corpus, "--output-dir", out) == 2
    assert f"{corpus}:6: doc_id" in capsys.readouterr().err
    assert not (out / "run_manifest.json").exists()


def test_a_run_without_a_determined_outcome_writes_a_null_rejection_rate(tmp_path):
    sources = tmp_path / "sources"
    sources.mkdir()
    for name, counsel in (("a.txt", "Me Anne MARTIN"), ("b.txt", "Me Hugo TOUR")):
        (sources / name).write_text(
            f"APPELANT\nMonsieur A B\nreprésenté par {counsel}\n"
            "PAR CES MOTIFS\nRenvoie l'affaire.\n", encoding="utf-8")
    out = tmp_path / "out"
    assert _run("run", "--input-dir", sources, "--output-dir", out) == 0
    manifest = (out / "run_manifest.json").read_text(encoding="utf-8")
    assert '"rejection_rate": null' in manifest
    assert json.loads(manifest)["counts"]["outcomes"]["undetermined"] == 2


def test_lawyers_seen_counts_every_named_lawyer_and_rankings_only_determined_ones(tmp_path):
    # Paul DURAND pleads only in an undetermined case: seen, but never a
    # node of the opposing network, not even at --min-cases 0
    sources = tmp_path / "sources"
    sources.mkdir()
    for name, appellant, ruling in (("a.txt", "Me Anne MARTIN", "Confirme le jugement."),
                                    ("b.txt", "Me Anne MARTIN", "Infirme le jugement."),
                                    ("c.txt", "Me Paul DURAND", "Renvoie l'affaire.")):
        (sources / name).write_text(
            f"APPELANT\nMonsieur A B\nreprésenté par {appellant}\n\n"
            "INTIMÉ\nMadame C D\nreprésentée par Me Hugo TOUR\n\n"
            f"PAR CES MOTIFS\n{ruling}\n", encoding="utf-8")
    for min_cases in (2, 0):
        out = tmp_path / f"out{min_cases}"
        assert _run("run", "--input-dir", sources, "--output-dir", out,
                    "--min-cases", min_cases) == 0
        seen = set()
        for line in (out / "extracted.jsonl").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            seen.update(n["canonical"]
                        for n in record["appellant_lawyers"] + record["appellee_lawyers"])
        assert seen == {"anne martin", "hugo tour", "paul durand"}
        counts = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))["counts"]
        assert counts["lawyers_seen"] == len(seen)
        with open(out / "rankings.csv", encoding="utf-8", newline="") as fh:
            ranked = {row["lawyer_canonical"]: row for row in csv.DictReader(fh)}
        assert set(ranked) == {"anne martin", "hugo tour"}
        assert counts["lawyers_ranked"] == 2
        assert ranked["hugo tour"]["experience"] == "3"


def test_an_empty_opposing_network_writes_a_header_only_rankings_csv(tmp_path):
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "20") == 0
    assert _run("run", "--corpus-file", out / "corpus.jsonl", "--output-dir", out,
                "--min-cases", "1000") == 0
    assert (out / "rankings.csv").read_bytes() == (
        b"lawyer_canonical,lawyer_display,experience,wins,losses,win_rate,pagerank\r\n")
    counts = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))["counts"]
    assert (counts["opposing_nodes"], counts["lawyers_ranked"]) == (0, 0)
    assert counts["rejection_rate"] is not None


# deeper than any Python's recursion limit for the json decoder
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_corpus_line_exits_2_naming_the_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(_DEEP_JSON + "\n", encoding="utf-8")
    assert _run("segment", "--corpus-file", corpus, "--output-dir", tmp_path / "out") == 2
    assert f"{corpus}:1:" in capsys.readouterr().err


def test_deeply_nested_config_file_exits_1_naming_it(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(_DEEP_JSON, encoding="utf-8")
    assert _run("synth", "--config", config, "--output-dir", tmp_path) == 1
    assert f"config file {config}:" in capsys.readouterr().err


def test_deeply_nested_mix_exits_1_naming_the_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _run("synth", "--output-dir", tmp_path, "--mix", _DEEP_JSON)
    assert exc.value.code == 1
    assert "argument --mix: not a JSON value" in capsys.readouterr().err


def test_staged_output_equals_run(tmp_path):
    staged = tmp_path / "staged"
    whole = tmp_path / "run"
    assert _run("synth", "--output-dir", tmp_path, "--seed", "5", "--n-docs", "30") == 0
    corpus = tmp_path / "corpus.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    # duplicate documents, which every path must drop the same way
    corpus.write_text("".join(lines + lines[:5]), encoding="utf-8")
    common = ["--corpus-file", corpus, "--k", "2", "--min-cases", "1"]
    for stage in ("segment", "extract", "networks", "rank", "communities"):
        assert _run(stage, "--output-dir", staged, *common) == 0, stage
    assert _run("run", "--output-dir", whole, *common) == 0
    staged_files = sorted(p.name for p in staged.iterdir())
    assert staged_files == sorted(
        ["segments.jsonl", "extracted.jsonl", "opposing.graphml", "opposing.dot",
         "collaboration.graphml", "collaboration.dot", "cases_k2.graphml",
         "cases_k2.dot", "rankings.csv", "communities.csv"]
    )
    for name in staged_files:
        assert (staged / name).read_bytes() == (whole / name).read_bytes(), name


# sha256 of each artifact of `run` at non-default network parameters over the
# 200-document seed-7 corpus; run_manifest.json is left out, as it holds the
# corpus path. The CI benchmark job pins the default parameters only.
_PINNED_RUN_SHA256 = {
    "segments.jsonl": "8b1cebf7754f6a29dca8fbf5d07a0e3ee8ee58ed007bf62b55e1b2ae57c3021f",
    "extracted.jsonl": "ea79f20ea6cd3057ca02e69d186375c9d6760a0e67e8b4f1c9653b600d95633d",
    "opposing.dot": "7a89e3d9dcb7d1695282a9abab1e52e332d41a72f0d0e4d8039531e43d986ef8",
    "opposing.graphml": "208660e708fa5c39f99f2a581b22120da579c0c7708a151041f19c2904efc03d",
    "collaboration.dot": "418ff40584e661f31f1f93386f3d5e2a01cf33a30a7e0ffda0938c719ceb0a38",
    "collaboration.graphml": "8ceca6714c68f27783b56477bfeb8f9132747d7a032eab47615761f3c8fc9caa",
    "cases_k2.dot": "1a6856a212b5b0d0aa77afbb386923e323f28ec248d626fd7ab4b3e3e962cd93",
    "cases_k2.graphml": "8321c329d8d06cbb634b4de93549c008fbacb23036cbff6e1abecf44cb2c78a5",
    "communities.csv": "b1d74e3a62013514d5fd9e4519800f4b227a49357d5189f3dd3fe0aa03b7720b",
    "rankings.csv": "ad092bb224543badfe659a4a04f2067a32d24af98f40a9c0945900e0cffe5eb0",
}


def test_run_at_non_default_parameters_writes_the_pinned_bytes(tmp_path):
    assert _run("synth", "--n-docs", "200", "--seed", "7", "--output-dir", tmp_path) == 0
    corpus = tmp_path / "corpus.jsonl"
    assert hashlib.sha256(corpus.read_bytes()).hexdigest() == (
        "06ad3468f8e929cca98ade4d6558746f5507934b17343a76a20ed064d1974c4d")
    out = tmp_path / "out"
    assert _run("run", "--corpus-file", corpus, "--a", "0.3", "--b", "0.7", "--min-cases", "1",
                "--collab-min", "1", "--k", "2", "--output-dir", out) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in out.iterdir() if path.name != "run_manifest.json"}
    assert got == _PINNED_RUN_SHA256


_AGEN_PROFILE = {
    "jurisdiction": "agen",
    "jaro_threshold": 0.8,
    "markers": [{"segment": "appellee", "variants": ["ET"]},
                {"segment": "conclusion", "variants": ["PAR CES MOTIFS"]}],
}


@pytest.mark.parametrize("text", [
    '{"jurisdiction": "agen", "markers": [',
    json.dumps({k: v for k, v in _AGEN_PROFILE.items() if k != "markers"}),
    json.dumps([_AGEN_PROFILE]),
    json.dumps({**_AGEN_PROFILE, "jaro_threshold": "0.9"}),
    json.dumps({**_AGEN_PROFILE, "markers": [
        {"segment": "appellee", "variants": "ET"},
        {"segment": "conclusion", "variants": ["PAR CES MOTIFS"]}]}),
    json.dumps({**_AGEN_PROFILE, "markers": [
        {"segment": "appellee", "variants": ["ET", ""]},
        {"segment": "conclusion", "variants": ["PAR CES MOTIFS"]}]}),
    _DEEP_JSON,
], ids=["bad_json", "no_markers", "top_level_list", "string_threshold", "string_variants",
        "empty_variant", "deep_nesting"])
def test_malformed_profile_file_exits_1_before_any_stage(tmp_path, monkeypatch, capsys, text):
    calls = []
    load_profile = segmenter.load_profile
    monkeypatch.setattr(segmenter, "load_profile",
                        lambda path: calls.append(Path(path)) or load_profile(path))
    sources = tmp_path / "sources"
    sources.mkdir()
    (sources / "a.txt").write_text("ENTRE\nX\nPAR CES MOTIFS\nConfirme.\n", encoding="utf-8")
    profile = tmp_path / "profile.json"
    profile.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert _run("run", "--input-dir", sources, "--profile-file", profile,
                "--output-dir", out) == 1
    assert f"profile file {profile}:" in capsys.readouterr().err
    assert not (out / "corpus.jsonl").exists()
    assert calls == [profile]
    # a well-formed profile is read once, where the parameters are checked
    profile.write_text(json.dumps(_AGEN_PROFILE), encoding="utf-8")
    assert _run("run", "--input-dir", sources, "--profile-file", profile,
                "--output-dir", out) == 0
    assert calls == [profile, profile]


def test_output_dir_that_is_a_file_exits_1(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("", encoding="utf-8")
    assert _run("synth", "--output-dir", blocker, "--n-docs", "5") == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"output_dir {blocker}" in err


def _dot_fragment(path, **graph):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("graph G {\n")
    raise OSError("disk full")


_write_case = networks.write_case


def _write_case_then_fail(stem, *args):
    _write_case(stem, *args)
    raise OSError("disk full")


def _interrupted(graph):
    raise KeyboardInterrupt


@pytest.mark.parametrize("module, name, fake, code, message", [
    (graphio, "write_dot", _dot_fragment, 1, "courtnet: disk full"),
    (networks, "write_case", _write_case_then_fail, 1, "courtnet: disk full"),
    (networks, "detect_communities", _interrupted, 130, "courtnet: interrupted"),
], ids=["write_dot", "write_case", "interrupt"])
def test_failed_rerun_leaves_every_earlier_artifact_as_it_was(
        tmp_path, monkeypatch, capsys, module, name, fake, code, message):
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", tmp_path, "--n-docs", "30") == 0
    corpus = tmp_path / "corpus.jsonl"
    assert _run("run", "--corpus-file", corpus, "--output-dir", out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(module, name, fake)
    capsys.readouterr()
    # another `a` changes opposing.*, which are written before the failure
    assert _run("run", "--corpus-file", corpus, "--output-dir", out, "--a", "3.5") == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list(out.glob(".courtnet-*"))
    del before["run_manifest.json"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("command, blocked", [("run", "rankings.csv"),
                                             ("networks", "cases_k3.dot")])
def test_a_directory_in_place_of_an_artifact_fails_before_any_move(
        tmp_path, capsys, command, blocked):
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", tmp_path, "--n-docs", "30") == 0
    corpus = tmp_path / "corpus.jsonl"
    assert _run("run", "--corpus-file", corpus, "--output-dir", out) == 0
    (out / blocked).unlink()
    (out / blocked).mkdir()
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    capsys.readouterr()
    # another `a` changes opposing.*, which both commands write
    assert _run(command, "--corpus-file", corpus, "--output-dir", out, "--a", "3.5") == 1
    del before["run_manifest.json"]
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert not list(out.glob(".courtnet-*"))
    err = capsys.readouterr().err
    assert f"courtnet: cannot replace {out / blocked}" in err and "Traceback" not in err


_KILLED_RUN = """
import os, signal, sys
from courtnet import cli
cli.networks_mod.detect_communities = lambda graph: os.kill(os.getpid(), signal.SIGKILL)
cli.main(sys.argv[1:])
"""


@pytest.mark.skipif(os.name != "posix", reason="pids are tested with os.kill(pid, 0)")
def test_the_next_command_removes_a_killed_commands_staging_directory(tmp_path):
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", tmp_path, "--n-docs", "10") == 0
    src = str(Path(courtnet.__file__).parents[1])
    killed = subprocess.run([sys.executable, "-c", _KILLED_RUN, "run", "--corpus-file",
                             str(tmp_path / "corpus.jsonl"), "--output-dir", str(out)],
                            env={**os.environ, "PYTHONPATH": src})
    assert killed.returncode == -signal.SIGKILL
    [left] = out.glob(".courtnet-*")
    assert (left / "segments.jsonl").exists()
    live = out / f".courtnet-{os.getpid()}-live"  # this process's pid: an owner that is alive
    live.mkdir()
    assert _run("synth", "--output-dir", out, "--n-docs", "5") == 0
    assert not left.exists() and live.exists()


def test_each_command_computes_only_what_it_needs_once(tmp_path, monkeypatch):
    calls = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(segmenter, "segment")
    for name in ("build_case_graph", "detect_communities", "build_opposing_network",
                 "lawyer_tallies"):
        count(networks, name)
    out = tmp_path / "out"
    assert _run("synth", "--output-dir", out, "--n-docs", "40") == 0
    assert _run("run", "--corpus-file", out / "corpus.jsonl", "--output-dir", out) == 0
    docs = json.loads((out / "run_manifest.json").read_text())["counts"]["docs_ingested"]
    # the lawyer table serves the opposing network, the ranking and the manifest
    lawyers = {"lawyer_tallies": 1, "build_opposing_network": 1}
    assert calls == {"segment": docs, "build_case_graph": 1, "detect_communities": 1, **lawyers}
    for command, want in (("networks", {"build_case_graph": 1, "detect_communities": 1,
                                        **lawyers}),
                          ("rank", lawyers),
                          ("communities", {"build_case_graph": 1, "detect_communities": 1})):
        calls.clear()
        assert _run(command, "--output-dir", out) == 0
        assert calls == want, command
