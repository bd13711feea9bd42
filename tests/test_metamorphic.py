"""Metamorphic relations over the whole pipeline: an input changed in a known
way changes the artifacts in a known way, or not at all (Chen, Cheung & Yiu,
"Metamorphic testing", HKUST-CS98-01, 1998). Each relation runs `run`
in-process over a synthetic corpus, the seed-7 80-document one or one that
hypothesis draws, and over a variant of it."""

import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from courtnet.cli import main
from courtnet.corpus import text_doc_id
from courtnet.extract import canonical_name

LAWYER_ARTIFACTS = ("collaboration.dot", "collaboration.graphml", "opposing.dot",
                    "opposing.graphml", "rankings.csv")
# --collab-min 1 puts the seed-7 corpus's co-counsel pairs in the collaboration graph
FLAGS = ("--collab-min", "1")


def _run(*argv):
    return main([str(a) for a in argv])


def _artifacts(out):
    """The bytes of every file in out but the manifest, which names its inputs."""
    return {path.name: path.read_bytes() for path in out.iterdir()
            if path.name != "run_manifest.json"}


def _run_over(directory, name, lines):
    """The artifacts of `run` over a corpus file of these lines."""
    path = directory / f"{name}.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    assert _run("run", "--corpus-file", path, "--output-dir", directory / name, *FLAGS) == 0
    return _artifacts(directory / name)


def _line(text, row=None):
    """A corpus line of text under its content-addressed id, as ingest gives it;
    the other fields come from `row`, a corpus line's object, if given."""
    row = {"jurisdiction": "generic", "source_path": "added", **(row or {}),
           "doc_id": text_doc_id(text), "text": text}
    return json.dumps(row, ensure_ascii=False) + "\n"


def _renamed(lines, old, new):
    """The corpus lines with each `Me <old>` mention of a text made `Me <new>`,
    under the new text's id."""
    mention = re.compile(rf"\bMe {re.escape(old)}(?=[,\s])")
    renamed = []
    for line in lines:
        row = json.loads(line)
        renamed.append(_line(mention.sub(f"Me {new}", row["text"]), row)
                       if mention.search(row["text"]) else line)
    return renamed


def _records(artifacts):
    return [json.loads(line) for line in artifacts["extracted.jsonl"].splitlines()]


def _rows(artifacts):
    """rankings.csv's header and rows, as lists of cells."""
    return list(csv.reader(io.StringIO(artifacts["rankings.csv"].decode("utf-8"))))


def _synth_run(directory, *flags):
    """(the lines of a corpus file that synth writes with these flags, run's artifacts over them)."""
    assert _run("synth", "--output-dir", directory, *flags) == 0
    lines = (directory / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    return lines, _run_over(directory, "base", lines)


@pytest.fixture(scope="module")
def seed7(tmp_path_factory):
    """(directory, the corpus file's lines, run's artifacts over them)."""
    directory = tmp_path_factory.mktemp("seed7")
    return directory, *_synth_run(directory, "--seed", "7", "--n-docs", "80")


# a corpus of 20 to 60 documents, of any seed and of one or both layouts
drawn_corpora = st.builds(
    lambda seed, n_docs, douai: ("--seed", seed, "--n-docs", n_docs, "--mix", json.dumps(
        {jur: w for jur, w in (("douai", douai), ("agen", 1 - douai)) if w})),
    st.integers(0, 2**16), st.integers(20, 60), st.sampled_from([0, 0.25, 0.5, 1]))


def _rtf(text):
    """The text as a minimal RTF file: \\par line ends, escaped \\ { }, \\uN? past ASCII."""
    body = []
    for char in text:
        code = ord(char)
        if char == "\n":
            body.append("\\par\n")
        elif char in "\\{}":
            body.append("\\" + char)
        elif code < 128:
            body.append(char)
        else:
            body.append(f"\\u{code if code < 32768 else code - 65536}?")
    return "{\\rtf1\\ansi " + "".join(body) + "}"


@settings(max_examples=6)
@given(corpus=drawn_corpora, data=st.data())
def test_no_artifact_depends_on_the_line_order_of_a_corpus_file(corpus, data):
    # shuffling the lines of a corpus file changes no artifact of run or flowgraph
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        lines, base = _synth_run(directory, *corpus)
        shuffled = data.draw(st.permutations(lines), label="shuffled")
        assume(shuffled != lines)
        assert _run_over(directory, "shuffled", shuffled) == base
        got = []
        for name in ("base", "shuffled"):
            out = directory / f"flow-{name}"
            assert _run("flowgraph", "--corpus-file", directory / f"{name}.jsonl",
                        "--output-dir", out) == 0
            got.append(_artifacts(out))
    jurisdictions = {json.loads(line)["jurisdiction"] for line in lines}
    assert len(base) == 10 and len(got[0]) == 2 * len(jurisdictions) and got[0] == got[1]


@settings(max_examples=6)
@given(corpus=drawn_corpora, data=st.data())
def test_run_over_the_corpus_that_ingest_wrote_writes_the_same_bytes(corpus, data):
    # --input-dir, and --corpus-file over the corpus.jsonl that it wrote; the
    # file names follow a drawn order, and one source in 4 is RTF
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        lines, _ = _synth_run(directory, *corpus)
        names = data.draw(st.permutations(range(len(lines))), label="file names")
        sources = directory / "sources"
        sources.mkdir()
        for i, line in enumerate(lines):
            text, stem = json.loads(line)["text"], sources / f"doc_{names[i]:02d}"
            if i % 4:
                stem.with_suffix(".txt").write_text(text, encoding="utf-8")
            else:
                stem.with_suffix(".rtf").write_text(_rtf(text), encoding="ascii")
        assert _run("run", "--input-dir", sources, "--output-dir", directory / "ingested",
                    *FLAGS) == 0
        ingested = _artifacts(directory / "ingested")
        assert _run("run", "--corpus-file", directory / "ingested" / "corpus.jsonl",
                    "--output-dir", directory / "read", *FLAGS) == 0
        read = _artifacts(directory / "read")
    assert len(ingested.pop("corpus.jsonl").splitlines()) == len(lines)
    assert len(read) == 10 and read == ingested


NO_COUNSEL = """COUR D'APPEL DE DOUAI

APPELANTE
Madame Claire DUPONT

INTIMÉ
Monsieur Paul HENRY

PAR CES MOTIFS
Confirme le jugement entrepris.
"""

UNDETERMINED = """COUR D'APPEL DE DOUAI

APPELANTE
Madame Claire DUPONT
représentée par Me {appellant}, avocat au barreau de Douai

INTIMÉ
Monsieur Paul HENRY
représenté par Me {appellee}, avocat au barreau de Lille

PAR CES MOTIFS
Renvoie l'affaire à une audience ultérieure.
"""


@settings(max_examples=8)
@given(corpus=drawn_corpora)
def test_a_judgment_without_counsel_changes_no_lawyer_artifact(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        lines, base = _synth_run(directory, *corpus)
        added = _run_over(directory, "no_counsel", lines + [_line(NO_COUNSEL)])
    record, = (r for r in _records(added) if r["doc_id"] == text_doc_id(NO_COUNSEL))
    assert record["outcome"] == "appellee_wins"
    assert record["appellant_lawyers"] == record["appellee_lawyers"] == []
    for name in LAWYER_ARTIFACTS:
        assert added[name] == base[name], name


@settings(max_examples=8)
@given(corpus=drawn_corpora)
def test_an_undetermined_judgment_adds_only_to_its_lawyers_experience(corpus):
    # the lawyer graphs count determined cases only, and experience counts every case
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        lines, base = _synth_run(directory, *corpus)
        header, *rows = _rows(base)
        assume(len(rows) >= 2)
        top, bottom = rows[0], rows[-1]
        text = UNDETERMINED.format(appellant=top[1], appellee=bottom[1])
        added = _run_over(directory, "undetermined", lines + [_line(text)])
    record, = (r for r in _records(added) if r["doc_id"] == text_doc_id(text))
    assert record["outcome"] == "undetermined"
    for name in LAWYER_ARTIFACTS[:-1]:
        assert added[name] == base[name], name
    assert _rows(added) == [header] + [
        row[:2] + [str(int(row[2]) + 1)] + row[3:] if row in (top, bottom) else row
        for row in rows]


@settings(max_examples=12)
@given(corpus=drawn_corpora, data=st.data())
def test_a_renamed_lawyer_changes_only_that_name(corpus, data):
    # a suffix on one lawyer's `Me ...` mentions, where the new canonical name
    # sorts where the old one did among every lawyer's; no other name holds either
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        lines, base = _synth_run(directory, *corpus)
        everyone = sorted({name["canonical"] for record in _records(base)
                           for name in record["appellant_lawyers"] + record["appellee_lawyers"]})
        assume(len(_rows(base)) > 1)
        row = data.draw(st.sampled_from(_rows(base)[1:]), label="lawyer")
        suffix = data.draw(st.sampled_from(["E", "S", "Y", "EAU"]), label="suffix")
        old, new = row[1], row[1] + suffix
        old_canonical, new_canonical = row[0], canonical_name(new)
        others = [name for name in everyone if name != old_canonical]
        assume(sorted(others + [new_canonical]).index(new_canonical)
               == everyone.index(old_canonical))
        assume(not any(old_canonical in name or new_canonical in name for name in others))
        renamed = _renamed(lines, old, new)
        assert renamed != lines
        got = _run_over(directory, "renamed", renamed)
    for name in LAWYER_ARTIFACTS:
        want = base[name].replace(old_canonical.encode(), new_canonical.encode())
        assert got[name] == want.replace(old.encode(), new.encode()), name


_IDS = re.compile(r'\s*(?:<node id="([^"]*)"|<edge source="([^"]*)" target="([^"]*)"'
                  r'|"([^"]*)" (?:->|--) "([^"]*)"|"([^"]*)"(?: \[|;))')


def _in_order(data, undirected):
    """The lines of a lawyer graph file with each run of node lines sorted by id
    and each run of edge lines by (source, target); an undirected edge is
    written from its smaller end."""
    lines, runs = [], []  # runs: [(kind, key, line)] of consecutive node or edge lines
    for line in data.decode("utf-8").splitlines(keepends=True):
        ids = _IDS.match(line)
        if not ids:
            lines.extend(line for _, _, line in sorted(runs))
            runs = []
            lines.append(line)
            continue
        node, source, target = ids[1] or ids[6], ids[2] or ids[4], ids[3] or ids[5]
        if node is None and undirected and source > target:
            i, j = (2, 3) if ids[2] is not None else (4, 5)
            line = (line[:ids.start(i)] + target + line[ids.end(i):ids.start(j)] + source
                    + line[ids.end(j):])
            source, target = target, source
        runs.append((node is None, (node,) if node is not None else (source, target), line))
    lines.extend(line for _, _, line in sorted(runs))
    return "".join(lines).encode("utf-8")


@settings(max_examples=30)
@given(data=st.data())
def test_a_lawyer_renamed_past_others_moves_only_to_the_new_names_place(seed7, data):
    # a lawyer's `Me ...` mentions take a name that sorts elsewhere among every
    # lawyer's: the rankings and the lawyer graphs keep their rows but that name,
    # rankings.csv in PageRank then canonical-name order, the graphs in id order
    directory, lines, base = seed7
    everyone = sorted({name["canonical"] for record in _records(base)
                       for name in record["appellant_lawyers"] + record["appellee_lawyers"]})
    row = data.draw(st.sampled_from(_rows(base)[1:]), label="lawyer")
    old, old_canonical = row[1], row[0]
    new = data.draw(st.sampled_from(["Albane ABADIE", "Émile LEMAIRE", "Yves de LA TOUR",
                                     "Édith ZIMMER", "Marc de BROGLIE"]), label="new name")
    new_canonical = canonical_name(new)
    others = [name for name in everyone if name != old_canonical]
    assume(sorted(others + [new_canonical]).index(new_canonical) != everyone.index(old_canonical))
    assume(not any(old_canonical in name or new_canonical in name for name in others))
    got = _run_over(directory, "moved", _renamed(lines, old, new))
    header, *rows = _rows(base)
    rows = [[new_canonical, new, *row[2:]] if row[0] == old_canonical else row for row in rows]
    rows.sort(key=lambda row: (-float(row[-1]), row[0]))
    got_header, *got_rows = _rows(got)
    assert got_header == header
    # the scores may move in their last bits (see the xfail below)
    assert [row[:-1] for row in got_rows] == [row[:-1] for row in rows]
    for got_row, row in zip(got_rows, rows):
        assert math.isclose(float(got_row[-1]), float(row[-1]), rel_tol=1e-12), row
    for name in LAWYER_ARTIFACTS[:-1]:
        want = base[name].replace(old_canonical.encode(), new_canonical.encode())
        assert got[name] == _in_order(want, name.startswith("collaboration")), name


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="pagerank sums in name order (CHANGES.md, FOUND: ranking.pagerank), "
                   "so a renamed lawyer moves other lawyers' scores in their last bits")
def test_a_lawyer_renamed_past_others_leaves_every_score(seed7):
    directory, lines, base = seed7
    row = _rows(base)[6]
    got = _run_over(directory, "scored", _renamed(lines, row[1], "Édith ZIMMER"))
    assert sorted(row[-1] for row in _rows(got)) == sorted(row[-1] for row in _rows(base))
