"""Metamorphic relations over the whole pipeline: an input changed in a known
way changes the artifacts in a known way, or not at all (Chen, Cheung & Yiu,
"Metamorphic testing", HKUST-CS98-01, 1998). Each relation runs `run`
in-process over the seed-7 80-document corpus and a variant of it."""

import csv
import io
import json
import re

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


def _records(artifacts):
    return [json.loads(line) for line in artifacts["extracted.jsonl"].splitlines()]


def _rows(artifacts):
    """rankings.csv's header and rows, as lists of cells."""
    return list(csv.reader(io.StringIO(artifacts["rankings.csv"].decode("utf-8"))))


@pytest.fixture(scope="module")
def seed7(tmp_path_factory):
    """(directory, the corpus file's lines, run's artifacts over them)."""
    directory = tmp_path_factory.mktemp("seed7")
    assert _run("synth", "--output-dir", directory, "--seed", "7", "--n-docs", "80") == 0
    lines = (directory / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    return directory, lines, _run_over(directory, "base", lines)


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


def test_run_over_the_corpus_that_ingest_wrote_writes_the_same_bytes(tmp_path, seed7):
    # --input-dir, and --corpus-file over the corpus.jsonl that it wrote; the
    # file names do not follow doc_id order, and one source in 4 is RTF
    _, lines, _ = seed7
    sources = tmp_path / "sources"
    sources.mkdir()
    for i, line in enumerate(lines):
        text, stem = json.loads(line)["text"], sources / f"doc_{37 * i % 80:02d}"
        if i % 4:
            stem.with_suffix(".txt").write_text(text, encoding="utf-8")
        else:
            stem.with_suffix(".rtf").write_text(_rtf(text), encoding="ascii")
    assert _run("run", "--input-dir", sources, "--output-dir", tmp_path / "ingested",
                *FLAGS) == 0
    ingested = _artifacts(tmp_path / "ingested")
    assert len(ingested.pop("corpus.jsonl").splitlines()) == 80
    assert _run("run", "--corpus-file", tmp_path / "ingested" / "corpus.jsonl",
                "--output-dir", tmp_path / "read", *FLAGS) == 0
    read = _artifacts(tmp_path / "read")
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


def test_a_judgment_without_counsel_changes_no_lawyer_artifact(seed7):
    directory, lines, base = seed7
    added = _run_over(directory, "no_counsel", lines + [_line(NO_COUNSEL)])
    record, = (r for r in _records(added) if r["doc_id"] == text_doc_id(NO_COUNSEL))
    assert record["outcome"] == "appellee_wins"
    assert record["appellant_lawyers"] == record["appellee_lawyers"] == []
    for name in LAWYER_ARTIFACTS:
        assert added[name] == base[name], name


def test_an_undetermined_judgment_adds_only_to_its_lawyers_experience(seed7):
    # the lawyer graphs count determined cases only, and experience counts every case
    directory, lines, base = seed7
    header, *rows = _rows(base)
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
@given(data=st.data())
def test_a_renamed_lawyer_changes_only_that_name(seed7, data):
    # a suffix on one lawyer's `Me ...` mentions, where the new canonical name
    # sorts where the old one did among every lawyer's; no other name holds either
    directory, lines, base = seed7
    everyone = sorted({name["canonical"] for record in _records(base)
                       for name in record["appellant_lawyers"] + record["appellee_lawyers"]})
    row = data.draw(st.sampled_from(_rows(base)[1:]), label="lawyer")
    suffix = data.draw(st.sampled_from(["E", "S", "Y", "EAU"]), label="suffix")
    old, new = row[1], row[1] + suffix
    old_canonical, new_canonical = row[0], canonical_name(new)
    others = [name for name in everyone if name != old_canonical]
    assume(sorted(others + [new_canonical]).index(new_canonical) == everyone.index(old_canonical))
    assume(not any(old_canonical in name or new_canonical in name for name in others))
    mention = re.compile(rf"\bMe {re.escape(old)}(?=[,\s])")
    renamed = []
    for line in lines:
        row = json.loads(line)
        renamed.append(_line(mention.sub(f"Me {new}", row["text"]), row)
                       if mention.search(row["text"]) else line)
    assert renamed != lines
    got = _run_over(directory, "renamed", renamed)
    for name in LAWYER_ARTIFACTS:
        want = base[name].replace(old_canonical.encode(), new_canonical.encode())
        assert got[name] == want.replace(old.encode(), new.encode()), name
