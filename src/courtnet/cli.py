"""Command line pipeline driver.

Subcommands cover each stage (synth, ingest, segment, extract, networks,
rank, communities, flowgraph) plus `run`, which executes the whole pipeline.
Each stage is one function: it takes in-memory inputs, writes its own
artifacts to the output directory and returns its outputs. A staged
subcommand loads its inputs from files and calls its stage; `run` calls the
same stages in order and writes `run_manifest.json` last, so staged and `run`
artifacts are byte-identical. `rank` and `communities` rebuild the graphs
they need from `extracted.jsonl` and the network parameters; no stage reads
GraphML back.

Every `PipelineConfig` field is both a `--config` JSON key and a flag of
every subcommand, typed by the field's annotation.

Exit codes: 0 success, 1 configuration error or an unwritable artifact, 2
missing, unreadable or corrupt input (a corrupt line is named as path:line).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import networks as networks_mod
from . import ranking as ranking_mod
from . import segmenter as segmenter_mod
from .errors import (
    CorruptInput,
    CourtnetError,
    EmptyCorpus,
    EmptyDocument,
    EncodingError,
    InvalidMix,
    MissingConclusion,
    OutOfOrderMarkers,
    UnreadableFile,
)
from .extract import (
    ExtractionRecord,
    Outcome,
    classify_outcome,
    extract_articles,
    extract_lawyers,
    read_extracted,
    rejection_rate,
    write_extracted,
)
from .jsonl import check_encodable, decode, iter_jsonl, write_jsonl
from .mix import jurisdiction_counts
from .networks import CaseResult, NetworkParams
from .textmetrics import check_threshold

logger = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    input_dir: str | None = None    # directory of .txt/.rtf sources
    corpus_file: str | None = None  # pre-built corpus.jsonl, wins over input_dir
    jurisdiction: str = "generic"   # label stamped on ingested documents
    profile: str = "generic"        # built-in keyword profile name
    profile_file: str | None = None  # JSON profile path, wins over `profile`
    jaro_threshold: float = 0.8     # flow-graph contraction threshold
    a: float = 2.0
    b: float = 1.0
    min_cases: int = 2
    collab_min: int = 2
    k: int = 3
    damping: float = 0.85
    tol: float = 1e-10
    max_iter: int = 10000
    seed: int = 7
    n_docs: int = 100
    mix: dict[str, float] = field(default_factory=lambda: {"douai": 0.5, "agen": 0.5})
    output_dir: str = "out"


_HINTS = typing.get_type_hints(PipelineConfig)
_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def _field_class(name: str) -> type:
    """The field's annotation as a plain class: int, float, str or dict."""
    hint = _HINTS[name]
    if typing.get_origin(hint) is dict:
        return dict
    return next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))


def config_to_json(cfg: PipelineConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)


def load_config_file(path: str | Path) -> PipelineConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        cfg = decode(PipelineConfig, data)
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        _check_strings(cfg)
        return cfg
    except OSError as exc:
        raise UnreadableFile(f"config file {path}: {exc}") from exc
    except (TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"config file {path}: {exc}") from None


def _check_strings(cfg: PipelineConfig, names=("jurisdiction", "mix")) -> None:
    """ValueError naming a key with a string no UTF-8 file holds (default: keys artifacts hold)."""
    for name in names:
        check_encodable(getattr(cfg, name), f"{name}: ")


def validate_config(cfg: PipelineConfig) -> None:
    """Range-check every parameter before any work, with its owner's check."""
    _check_strings(cfg)
    _network_params(cfg)
    networks_mod.check_k(cfg.k)
    ranking_mod.check_pagerank_params(cfg.damping, cfg.tol, cfg.max_iter)
    check_threshold(cfg.jaro_threshold)
    jurisdiction_counts(cfg.n_docs, cfg.mix)
    _resolve_profile(cfg)


def _resolve_profile(cfg: PipelineConfig) -> segmenter_mod.KeywordProfile:
    if cfg.profile_file:
        return segmenter_mod.load_profile(cfg.profile_file)
    return segmenter_mod.get_profile(cfg.profile)


def _out(cfg: PipelineConfig, name: str) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"output_dir {out} is not a usable directory: {exc}") from None
    return out / name


def _input(cfg: PipelineConfig, name: str, producer: str) -> Path:
    path = Path(cfg.output_dir) / name
    if not path.exists():
        raise UnreadableFile(f"missing input {path}; run the '{producer}' stage first")
    return path


# ---------------------------------------------------------------------------
# Stages: each writes its artifacts and returns its outputs


def ingest_sources(cfg: PipelineConfig) -> tuple[list, int]:
    """Every .txt/.rtf under input_dir, duplicates dropped, written as corpus.jsonl.

    Returns the documents and the number of duplicates dropped.
    """
    from . import corpus as corpus_mod  # only the stages that read a corpus load it

    if not cfg.input_dir:
        raise ValueError("ingest needs input_dir")
    root = Path(cfg.input_dir)
    if not root.is_dir():
        raise UnreadableFile(f"input directory not found: {root}")
    docs = []
    skipped = 0
    for path in sorted(root.rglob("*")):
        if path.suffix.lower() not in (".txt", ".rtf") or not path.is_file():
            continue
        try:
            docs.append(corpus_mod.ingest(path, cfg.jurisdiction))
        except (EmptyDocument, EncodingError, UnreadableFile) as exc:
            skipped += 1
            logger.warning("skipping %s: %s", path, exc)
    if not docs:
        raise EmptyCorpus(f"no ingestable documents under {root}")
    docs, dropped = corpus_mod.dedupe_documents(docs)
    corpus_mod.write_corpus(_out(cfg, "corpus.jsonl"), docs)
    logger.info(
        "ingested %d documents (%d unreadable skipped, %d duplicates dropped)",
        len(docs), skipped, dropped,
    )
    return docs, dropped


def _corpus_path(cfg: PipelineConfig) -> Path:
    if cfg.corpus_file:
        return Path(cfg.corpus_file)  # read_corpus names it if it cannot be read
    return _input(cfg, "corpus.jsonl", "ingest or synth")


def load_corpus(cfg: PipelineConfig) -> tuple[list, int]:
    """corpus_file, else the output directory's corpus.jsonl, duplicates dropped.

    Returns the documents and the number of duplicates dropped.
    """
    from . import corpus as corpus_mod

    path = _corpus_path(cfg)
    docs = corpus_mod.read_corpus(path)
    if not docs:
        raise EmptyCorpus(f"{path}: corpus is empty")
    return corpus_mod.dedupe_documents(docs)


def segment_corpus(cfg, docs):
    """Segment every document into segments.jsonl; returns ({doc_id: judgment}, failures)."""
    profile = _resolve_profile(cfg)
    segmented = {}
    failures = []
    for doc in docs:
        try:
            segmented[doc.doc_id] = segmenter_mod.segment(doc, profile)
        except (MissingConclusion, OutOfOrderMarkers) as exc:
            failures.append((doc.doc_id, str(exc)))
            logger.warning("segmentation failed: %s", exc)
    write_jsonl(_out(cfg, "segments.jsonl"),
                (segmented[doc_id] for doc_id in sorted(segmented)))
    logger.info("segmented %d documents, %d failures", len(segmented), len(failures))
    return segmented, failures


def _extract_one(doc, seg) -> ExtractionRecord:
    appellant, appellee = extract_lawyers(seg, doc)
    articles = extract_articles(doc.text)
    outcome, confirm, reverse = classify_outcome(seg.slice(doc.text, "conclusion"))
    return ExtractionRecord(
        doc_id=doc.doc_id,
        appellant_lawyers=tuple(appellant),
        appellee_lawyers=tuple(appellee),
        articles=frozenset(articles),
        outcome=outcome,
        confirm_count=confirm,
        reverse_count=reverse,
    )


def extract_records(cfg, docs, segmented) -> list[ExtractionRecord]:
    """One record per segmented document, sorted by id, written as extracted.jsonl."""
    records = sorted(
        (_extract_one(doc, segmented[doc.doc_id]) for doc in docs if doc.doc_id in segmented),
        key=lambda r: r.doc_id,
    )
    write_extracted(_out(cfg, "extracted.jsonl"), records)
    logger.info("extracted %d records", len(records))
    return records


def _case_results(records) -> tuple[list[CaseResult], dict[str, str]]:
    """CaseResults for every record with counsel, plus display-name map."""
    results = []
    display: dict[str, str] = {}
    for rec in sorted(records, key=lambda r: r.doc_id):
        for name in rec.appellant_lawyers + rec.appellee_lawyers:
            display.setdefault(name.canonical, name.display)
        if not (rec.appellant_lawyers or rec.appellee_lawyers):
            continue
        results.append(CaseResult(
            doc_id=rec.doc_id,
            appellant_lawyers=tuple(n.canonical for n in rec.appellant_lawyers),
            appellee_lawyers=tuple(n.canonical for n in rec.appellee_lawyers),
            outcome=rec.outcome,
        ))
    return results, display


def _determined(results) -> list[CaseResult]:
    return [r for r in results if r.outcome is not Outcome.UNDETERMINED]


def _network_params(cfg: PipelineConfig) -> NetworkParams:
    return NetworkParams(a=cfg.a, b=cfg.b, min_cases=cfg.min_cases, collab_min=cfg.collab_min)


def _case_graph(cfg, records):
    return networks_mod.build_case_graph(
        {rec.doc_id: rec.articles for rec in records},
        {rec.doc_id: rec.outcome for rec in records},
        cfg.k,
    )


def build_networks(cfg, records, results=None):
    """The three graphs, with the case graph's communities, as GraphML and DOT.

    Returns (opposing, collaboration, cases, partition); results default to the records'.
    """
    results = _case_results(records)[0] if results is None else results
    determined, params = _determined(results), _network_params(cfg)
    opposing = networks_mod.build_opposing_network(determined, params)
    collab = networks_mod.build_collaboration_network(determined, params)
    cases = _case_graph(cfg, records)
    partition = networks_mod.detect_communities(cases)
    networks_mod.write_opposing(_out(cfg, "opposing"), opposing)
    networks_mod.write_collaboration(_out(cfg, "collaboration"), collab)
    networks_mod.write_case(_out(cfg, f"cases_k{cfg.k}"), cases, partition.assignment)
    logger.info(
        "networks: opposing %d/%d, collaboration %d/%d, cases %d/%d",
        len(opposing.nodes), len(opposing.edges),
        len(collab.nodes), len(collab.edges),
        len(cases.nodes), len(cases.edges),
    )
    return opposing, collab, cases, partition


def rank_lawyers(cfg, results, display, opposing) -> list[ranking_mod.RankRow]:
    """The ranking over the opposing network and _case_results, written as rankings.csv."""
    rows = []
    if opposing.nodes:
        rows = ranking_mod.rank_table(
            results, opposing,
            damping=cfg.damping, tol=cfg.tol, max_iter=cfg.max_iter,
            display=display,
        )
    ranking_mod.write_rankings_csv(_out(cfg, "rankings.csv"), rows)
    logger.info("ranked %d lawyers", len(rows))
    return rows


def write_communities(cfg, cases, partition) -> None:
    """Size and appellant win rate of each community, written as communities.csv."""
    networks_mod.write_communities_csv(_out(cfg, "communities.csv"), partition, cases.nodes)
    logger.info("found %d communities", len(partition.sizes))


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(cfg: PipelineConfig) -> int:
    """generate a synthetic corpus with ground truth"""
    from . import corpus as corpus_mod, synth  # the generator is loaded for this command only

    docs, truth = synth.generate_synthetic_corpus(seed=cfg.seed, n_docs=cfg.n_docs, mix=cfg.mix)
    corpus_mod.write_corpus(_out(cfg, "corpus.jsonl"), docs)
    synth.write_truth(_out(cfg, "truth.jsonl"), truth)
    logger.info("wrote %d synthetic documents", len(docs))
    return 0


def cmd_ingest(cfg: PipelineConfig) -> int:
    """read .txt/.rtf sources into corpus.jsonl"""
    ingest_sources(cfg)
    return 0


def cmd_segment(cfg: PipelineConfig) -> int:
    """cut corpus documents into segments"""
    docs, _ = load_corpus(cfg)
    segment_corpus(cfg, docs)
    return 0


def cmd_extract(cfg: PipelineConfig) -> int:
    """extract lawyers, articles and outcomes"""
    docs, _ = load_corpus(cfg)
    texts = {doc.doc_id: doc.text for doc in docs}
    path = _input(cfg, "segments.jsonl", "segment")
    segmented = {}
    for lineno, seg in iter_jsonl(path, segmenter_mod.SegmentedJudgment):
        if seg.doc_id in texts:
            try:
                seg.check_offsets(texts[seg.doc_id])
            except ValueError as exc:
                raise CorruptInput(f"{path}:{lineno}: {exc}") from None
        segmented[seg.doc_id] = seg
    extract_records(cfg, docs, segmented)
    return 0


def _records(cfg: PipelineConfig) -> list[ExtractionRecord]:
    return read_extracted(_input(cfg, "extracted.jsonl", "extract"))


def cmd_networks(cfg: PipelineConfig) -> int:
    """build opposing, collaboration and case graphs"""
    build_networks(cfg, _records(cfg))
    return 0


def cmd_rank(cfg: PipelineConfig) -> int:
    """compute the lawyer ranking table"""
    results, display = _case_results(_records(cfg))
    opposing = networks_mod.build_opposing_network(_determined(results), _network_params(cfg))
    rank_lawyers(cfg, results, display, opposing)
    return 0


def cmd_communities(cfg: PipelineConfig) -> int:
    """detect communities on the case graph"""
    cases = _case_graph(cfg, _records(cfg))
    write_communities(cfg, cases, networks_mod.detect_communities(cases))
    return 0


def cmd_flowgraph(cfg: PipelineConfig) -> int:
    """build per-jurisdiction sentence flow graphs"""
    docs, _ = load_corpus(cfg)
    by_jur: dict[str, list] = {}
    for doc in docs:
        if any(c in doc.jurisdiction for c in ("/", os.altsep, "\0") if c):
            raise CorruptInput(
                f"{_corpus_path(cfg)}: document {doc.doc_id}: jurisdiction "
                f"{doc.jurisdiction!r} cannot be part of a file name")
        by_jur.setdefault(doc.jurisdiction, []).append(doc)
    # every graph is built before any is written, so a failed build leaves no flow file
    graphs = {jur: segmenter_mod.build_flow_graph(by_jur[jur], cfg.jaro_threshold)
              for jur in sorted(by_jur)}
    for jur, graph in graphs.items():
        segmenter_mod.write_flow(_out(cfg, f"flow_{jur}"), graph)
        logger.info(
            "flow graph %s: %d nodes, %d edges", jur, len(graph.nodes), len(graph.edges)
        )
    return 0


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Every stage in order, then run_manifest.json; returns the manifest.

    An earlier run's manifest is removed before the first stage, so a run that
    fails leaves none beside its partial artifacts.
    """
    if not (cfg.corpus_file or cfg.input_dir):
        raise ValueError("run needs corpus_file or input_dir")
    _check_strings(cfg, _FIELDS)  # run_manifest.json holds every field
    _out(cfg, "run_manifest.json").unlink(missing_ok=True)
    if cfg.corpus_file:
        docs, duplicates = load_corpus(cfg)
    else:
        docs, duplicates = ingest_sources(cfg)
    segmented, failures = segment_corpus(cfg, docs)
    records = extract_records(cfg, docs, segmented)
    results, display = _case_results(records)
    opposing, collab, cases, partition = build_networks(cfg, records, results)
    write_communities(cfg, cases, partition)
    rows = rank_lawyers(cfg, results, display, opposing)

    outcome_counts = {o.value: 0 for o in Outcome}
    for rec in records:
        outcome_counts[rec.outcome.value] += 1
    try:
        rate = rejection_rate(rec.outcome for rec in records)
    except CourtnetError:
        rate = None
    manifest = {
        "config": dataclasses.asdict(cfg),
        "counts": {
            "docs_ingested": len(docs),
            "duplicates_dropped": duplicates,
            "segmentation_failures": len(failures),
            "docs_extracted": len(records),
            "docs_skipped_no_lawyers": sum(
                1 for rec in records if not (rec.appellant_lawyers or rec.appellee_lawyers)
            ),
            "outcomes": outcome_counts,
            "rejection_rate": rate,
            "lawyers_seen": len(display),
            "lawyers_ranked": len(rows),
            "opposing_nodes": len(opposing.nodes),
            "opposing_edges": len(opposing.edges),
            "collaboration_nodes": len(collab.nodes),
            "collaboration_edges": len(collab.edges),
            "case_nodes": len(cases.nodes),
            "case_edges": len(cases.edges),
            "communities": len(partition.sizes),
        },
    }
    _out(cfg, "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return manifest


def cmd_run(cfg: PipelineConfig) -> int:
    """run the whole pipeline and write all artifacts"""
    counts = run_pipeline(cfg)["counts"]
    logger.info(
        "pipeline done: %d docs, %d ranked lawyers, %d communities",
        counts["docs_ingested"], counts["lawyers_ranked"], counts["communities"],
    )
    return 0


# ---------------------------------------------------------------------------
# Argument handling

COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "segment": cmd_segment,
    "extract": cmd_extract,
    "networks": cmd_networks,
    "rank": cmd_rank,
    "communities": cmd_communities,
    "flowgraph": cmd_flowgraph,
    "run": cmd_run,
}


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (config errors, per contract)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _json_value(text: str):
    """A flag's JSON value; argparse itself reports only ValueError and TypeError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise argparse.ArgumentTypeError(f"not a JSON value ({exc})") from None


def _build_parser(command: str | None) -> _Parser:
    """The parser, with the options of the named subcommand only.

    A process runs one command, so the other subcommands get their name and
    help, which is all that `courtnet --help` and a parse of this command read.
    """
    parser = _Parser(prog="courtnet", description=__doc__)
    parser.add_argument(
        "--print-default-config", action="store_true",
        help="print the default configuration as JSON and exit",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command")
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.__doc__)
        if name != command:
            continue
        # accepted after the subcommand too; SUPPRESS keeps a --verbose given before it
        p.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS,
                       help="log at INFO level")
        p.add_argument("--config", help="JSON config file")
        for f in _FIELDS.values():
            cls = _field_class(f.name)
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=_json_value if cls is dict else cls)
    return parser


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """argv parsed by the parser of its subcommand.

    The options before the subcommand take no value, so it is the first
    argument that is not an option.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    return _build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)


def _make_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config_file(args.config) if args.config else PipelineConfig()
    flags = {name: getattr(args, name) for name in _FIELDS if getattr(args, name) is not None}
    try:
        return decode(PipelineConfig, {**dataclasses.asdict(cfg), **flags})
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if args.print_default_config:
        print(config_to_json(PipelineConfig()))
        return 0
    if not args.command:
        print("courtnet: a subcommand is required (see --help)", file=sys.stderr)
        return 1
    try:
        cfg = _make_config(args)
        validate_config(cfg)
        return COMMANDS[args.command](cfg)
    except (UnreadableFile, CorruptInput, EmptyCorpus, FileNotFoundError) as exc:
        print(f"courtnet: input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, InvalidMix) as exc:
        print(f"courtnet: config error: {exc}", file=sys.stderr)
        return 1
    except (CourtnetError, OSError) as exc:  # an OSError left here is a failed write
        print(f"courtnet: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
