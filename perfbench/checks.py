"""Output checks for the benchmark workloads.

Each check reads the program's artifacts and the generator's ground truth
and returns a list of problems, empty when the output is correct. The
oracles here are the benchmark's own: they import nothing from courtnet.
"""

from __future__ import annotations

import csv
import json
import unicodedata
import xml.etree.ElementTree as ET
from pathlib import Path

GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"


def canonical(name: str) -> str:
    """Lawyer name folded as the program's canonical form: no accents, casefolded."""
    decomposed = unicodedata.normalize("NFKD", name)
    folded = "".join(c for c in decomposed if not unicodedata.combining(c)).casefold()
    return " ".join(folded.split())


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def dominant_lawyer(truth: list[dict]) -> str | None:
    """The planted lawyer: the only one who never loses a determined case."""
    wins: dict[str, int] = {}
    losses: dict[str, int] = {}
    for entry in truth:
        if entry["outcome"] == "undetermined":
            continue
        appellant_won = entry["outcome"] == "appellant_wins"
        sides = (entry["appellant_lawyers"], entry["appellee_lawyers"])
        winners, losers = sides if appellant_won else sides[::-1]
        for name in winners:
            wins[canonical(name)] = wins.get(canonical(name), 0) + 1
        for name in losers:
            losses[canonical(name)] = losses.get(canonical(name), 0) + 1
    unbeaten = [name for name in wins if name not in losses]
    return unbeaten[0] if len(unbeaten) == 1 else None


def _rankings(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _mismatches(what: str, bad: list[str], total: int) -> list[str]:
    if not bad:
        return []
    return [f"{what}: {len(bad)} of {total} documents differ, first {bad[:3]}"]


def check_run(gen: Path, out: Path) -> list[str]:
    """`run` over the generated sources reproduces the ground truth (criterion 7)."""
    problems = []
    truth = read_jsonl(gen / "truth.jsonl")
    generated = {row["doc_id"] for row in read_jsonl(gen / "corpus.jsonl")}
    ingested = {row["doc_id"] for row in read_jsonl(out / "corpus.jsonl")}
    if ingested != generated:
        problems.append(
            f"ingested doc ids differ from the generated ones: "
            f"{len(generated - ingested)} missing, {len(ingested - generated)} extra"
        )

    segments = {row["doc_id"]: [(s["name"], s["start"], s["end"]) for s in row["segments"]]
                for row in read_jsonl(out / "segments.jsonl")}
    bad = [t["doc_id"] for t in truth
           if segments.get(t["doc_id"]) != [(s["name"], s["start"], s["end"])
                                            for s in t["segments"]]]
    problems += _mismatches("segments", bad, len(truth))

    records = {row["doc_id"]: row for row in read_jsonl(out / "extracted.jsonl")}
    bad = []
    for t in truth:
        rec = records.get(t["doc_id"])
        for side in ("appellant_lawyers", "appellee_lawyers"):
            want = {canonical(n) for n in t[side]}
            if rec is None or {n["canonical"] for n in rec[side]} != want:
                bad.append(t["doc_id"])
                break
    problems += _mismatches("counsel", bad, len(truth))

    determined = [t["outcome"] for t in truth if t["outcome"] != "undetermined"]
    want_rate = determined.count("appellee_wins") / len(determined)
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    got_rate = manifest.get("counts", {}).get("rejection_rate")
    if got_rate is None or abs(got_rate - want_rate) > 1e-9:
        problems.append(f"rejection rate {got_rate}, ground truth {want_rate}")

    dominant = dominant_lawyer(truth)
    rated = [(float(r["win_rate"]), r["lawyer_canonical"])
             for r in _rankings(out / "rankings.csv") if r["win_rate"]]
    top_rate = max(rate for rate, _ in rated) if rated else None
    leaders = [name for rate, name in rated if rate == top_rate]
    if dominant is None or leaders != [dominant]:
        problems.append(f"top win rate held by {leaders}, planted lawyer {dominant}")
    return problems


def case_edge_count(records: list[dict], k: int) -> int:
    """Pairs of documents citing at least k common articles.

    Documents are grouped by their article set, so the count costs one set
    intersection per pair of distinct sets rather than per pair of documents.
    """
    groups: dict[frozenset, int] = {}
    for rec in records:
        key = frozenset((a["code"], a["number"]) for a in rec["articles"])
        groups[key] = groups.get(key, 0) + 1
    sets = list(groups.items())
    edges = 0
    for i, (a, n_a) in enumerate(sets):
        if len(a) >= k:
            edges += n_a * (n_a - 1) // 2
        for b, n_b in sets[i + 1:]:
            if len(a & b) >= k:
                edges += n_a * n_b
    return edges


def check_graphs(gen: Path, out: Path, n_docs: int, k: int = 3) -> list[str]:
    """Staged networks, rank and communities agree with the extracted records."""
    problems = []
    records = read_jsonl(gen / "extracted.jsonl")
    want_edges = case_edge_count(records, k)
    got_edges = (out / f"cases_k{k}.graphml").read_bytes().count(b"<edge ")
    if got_edges != want_edges:
        problems.append(f"cases_k{k}.graphml has {got_edges} edges, expected {want_edges}")

    with open(out / "communities.csv", encoding="utf-8", newline="") as fh:
        sizes = [int(row["size"]) for row in csv.DictReader(fh)]
    if sum(sizes) != n_docs:
        problems.append(f"community sizes sum to {sum(sizes)}, expected {n_docs}")

    dominant = dominant_lawyer(read_jsonl(gen / "truth.jsonl"))
    rows = _rankings(out / "rankings.csv")
    top = rows[0]["lawyer_canonical"] if rows else None
    if dominant is None or top != dominant:
        problems.append(f"rankings.csv is topped by {top}, planted lawyer {dominant}")
    return problems


def check_flow(gen: Path, out: Path) -> list[str]:
    """Each flow graph parses, and occurrences minus transitions is its doc count."""
    problems = []
    per_jur: dict[str, int] = {}
    for row in read_jsonl(gen / "corpus.jsonl"):
        per_jur[row["jurisdiction"]] = per_jur.get(row["jurisdiction"], 0) + 1
    for jur, n_docs in sorted(per_jur.items()):
        path = out / f"flow_{jur}.graphml"
        try:
            root = ET.parse(path).getroot()
        except (OSError, ET.ParseError) as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        keys = {key.get("id"): key.get("attr.name") for key in root.iter(GRAPHML_NS + "key")}

        def total(tag: str, attr: str) -> int:
            return sum(int(data.text) for elem in root.iter(GRAPHML_NS + tag)
                       for data in elem.iter(GRAPHML_NS + "data")
                       if keys.get(data.get("key")) == attr)

        paths = total("node", "occurrences") - total("edge", "count")
        if paths != n_docs:
            problems.append(f"{path.name}: occurrences minus edge counts is {paths}, "
                            f"expected {n_docs} documents")
    return problems
