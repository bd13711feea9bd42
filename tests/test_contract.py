"""The exit-code contract of every command, as one property test.

Each example copies the artifacts of a `run` over a 40-document synthetic
corpus, may mutate one line of one stage file or of a --config file, and runs
one command in-process. Its numeric flags are drawn from every float
(subnormal, huge, infinite, NaN and negative values included) and from ints
at their boundaries, and given as flags or in the config file. Whatever the
input:

- the exit code is 0, 1 or 2, and no exception escapes `main`;
- exit 2 names the stage file at fault, as path:line;
- a failed command leaves every file as it was, except the manifest;
- a command that succeeds writes no NaN or infinity, and the PageRank
  column of rankings.csv sums to 1 within 1e-9.
"""

import contextlib
import csv
import io
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from courtnet.cli import main

COMMANDS = ["run", "ingest", "segment", "extract", "networks", "rank", "communities",
            "flowgraph"]
STAGE_FILES = ["corpus.jsonl", "segments.jsonl", "extracted.jsonl"]

# every float, with the extremes drawn more often: st.floats() alone draws a
# value past 1e305 about once in 2,000 draws
_FLOATS = st.one_of(st.floats(), st.floats(1e300, sys.float_info.max), st.floats(0.0, 1e-300))
_INTS = st.one_of(st.integers(-2, 3), st.sampled_from([2**31, 2**63, -2**63]))
_VALUES = {
    **{name: _FLOATS for name in ("damping", "tol", "jaro_threshold")},
    **{name: _INTS for name in ("min_cases", "collab_min", "k")},
    # max_iter stays at the default or below: more iterations only take longer
    "max_iter": st.one_of(st.integers(-2, 3), st.just(10_000)),
}
# each win weight in half the examples, since they feed the graph arithmetic,
# and at most one other flag, so that its config error does not mask them
_FLAGS = st.builds(
    lambda a, b, other: {**other, **{k: v for k, v in (("a", a), ("b", b)) if v is not None}},
    st.none() | _FLOATS, st.none() | _FLOATS,
    st.lists(st.sampled_from(sorted(_VALUES)), max_size=1).flatmap(
        lambda names: st.fixed_dictionaries({name: _VALUES[name] for name in names})))

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
).map(json.dumps)
# a value made huge, deeply nested, infinite or a lone surrogate, as JSON text
_ODD_VALUES = st.sampled_from([
    '"' + "x" * 100_000 + '"', "7" * 5_000, "1e999", "[" * 100_000 + "]" * 100_000,
    '"\\ud800"', '"a\\udc00b"',
])
# (file, line index, (kind, position or key index, argument))
_MUTATIONS = st.tuples(
    st.sampled_from(["config", *STAGE_FILES]),
    st.integers(0, 10**6),
    st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 10**6), st.none()),
        st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
        st.tuples(st.just("drop"), st.integers(0, 100), st.none()),
        st.tuples(st.just("set"), st.integers(0, 100), _JSON | _ODD_VALUES),
    ),
)
_PLACEHOLDER = "@@mutated value@@"


def _mutate(line: bytes, kind: str, at: int, arg) -> bytes:
    """line, a JSON object without its newline, after one mutation."""
    if kind == "truncate":
        return line[:at % len(line)]
    if kind == "flip":
        at %= len(line)
        return line[:at] + bytes([line[at] ^ arg]) + line[at + 1:]
    row = json.loads(line)
    if not row:
        return (arg or "{}").encode()
    key = sorted(row)[at % len(row)]
    if kind == "drop":
        del row[key]
        return json.dumps(row).encode()
    row[key] = _PLACEHOLDER
    return json.dumps(row).replace(json.dumps(_PLACEHOLDER), arg, 1).encode()


def _non_finite(name: str, data: bytes) -> list:
    """The NaN and infinite numbers among one artifact's numeric fields."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        found = []
        json.loads(text, parse_constant=found.append)
        return found
    if name.endswith(".csv"):
        rows = csv.DictReader(io.StringIO(text))
        fields = [v for row in rows for k, v in row.items() if not k.startswith("lawyer_")]
    else:  # GraphML <data> values and DOT attribute values
        fields = re.findall(r'(?:<data key="\w+">|\b\w+=)([^<,\]\s"]*)', text)
    numbers = []
    for field in fields:
        with contextlib.suppress(ValueError):
            numbers.append(float(field))
    return [x for x in numbers if not math.isfinite(x)]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """out/: a 40-document corpus and every artifact of `run` over it; sources/: 3 .txt files."""
    root = tmp_path_factory.mktemp("contract")
    out = root / "out"
    assert main(["synth", "--n-docs", "40", "--output-dir", str(out)]) == 0
    assert main(["run", "--corpus-file", str(out / "corpus.jsonl"), "--output-dir", str(out)]) == 0
    (root / "sources").mkdir()
    lines = (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines[:3]):
        (root / "sources" / f"{i}.txt").write_text(json.loads(line)["text"], encoding="utf-8")
    return root


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(COMMANDS), flags=_FLAGS, in_config=st.booleans(),
       mutation=st.none() | _MUTATIONS)
def test_every_command_keeps_the_exit_code_contract(base, command, flags, in_config, mutation):
    target, line, change = mutation or (None, 0, None)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(base / "out", out)
        argv = [command, f"--output-dir={out}"]
        if command == "run":
            argv.append(f"--corpus-file={out / 'corpus.jsonl'}")
        if command == "ingest":
            argv.append(f"--input-dir={base / 'sources'}")
        if in_config or target == "config":
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(flags if in_config else {}) + "\n", encoding="utf-8")
            argv.append(f"--config={config}")
        if not in_config:
            argv += [f"--{name.replace('_', '-')}={value!r}" for name, value in flags.items()]
        if target:
            path = config if target == "config" else out / target
            lines = path.read_bytes().splitlines(keepends=True)
            line %= len(lines)
            lines[line] = _mutate(lines[line].rstrip(b"\n"), *change) + b"\n"
            path.write_bytes(b"".join(lines))
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        err = err.getvalue()

        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        assert not list(out.glob(".courtnet-*"))
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        if code == 2:
            # a corpus line whose text no longer fits its segments blames segments.jsonl;
            # flowgraph names a jurisdiction that cannot name a file by its document
            named = re.search(rf"^courtnet: input error: {re.escape(str(out))}/([\w.]+)"
                              r"(?::(\d+): |: document )", err, re.MULTILINE)
            assert target in STAGE_FILES and named and named[1] in STAGE_FILES, err
            if named[1] == target and named[2]:  # a flipped byte may be a newline
                assert int(named[2]) in (line + 1, line + 2), err
        if code:
            manifest_removed = {k: v for k, v in before.items() if k != "run_manifest.json"}
            assert after in (before, manifest_removed), err
        else:
            for name, data in after.items():
                if name.endswith((".csv", ".graphml", ".dot", ".json")):
                    assert not _non_finite(name, data), name
            ranks = list(csv.DictReader(io.StringIO(after["rankings.csv"].decode("utf-8"))))
            if ranks:
                assert abs(sum(float(row["pagerank"]) for row in ranks) - 1.0) <= 1e-9
