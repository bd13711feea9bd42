"""Command line pipeline driver.

Subcommands cover each stage (synth, ingest, segment, extract, networks,
rank, communities, flowgraph) plus `run`, which executes the whole pipeline.
A command is a tuple of stages, and one runner serves them all. Each value of
the pipeline is computed once, on first use, and a value kept in an artifact
(corpus, segments, extracted records) is read back from the output directory
unless one of the command's stages writes it. So a staged command starts from
the files of the stages before it, `run` passes everything on in memory, and
both write the same bytes. `rank` and `communities` rebuild the graphs they
need from `extracted.jsonl` and the network parameters.

Each input is decided once, where it enters: `Pipeline` checks every
parameter before the output directory is touched, and the corpus keeps one
document per text, in doc_id order, whatever the order of its source.

Artifacts appear only when a command succeeds: they are written into a
`.courtnet-*` staging directory in the output directory, then moved into
place, `run_manifest.json` last. Every command first removes an earlier
manifest, so none describes artifacts that a later command rewrote.

Every `PipelineConfig` field is both a `--config` JSON key and a flag of
every subcommand, typed by the field's annotation.

Exit codes: 0 success, 1 configuration error or an unwritable artifact, 2
missing, unreadable or corrupt input (a corrupt line is named as path:line),
130 interrupted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import re
import shutil
import sys
import tempfile
import typing
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

from . import networks as networks_mod
from . import ranking as ranking_mod
from . import segmenter as segmenter_mod
from .errors import InputError, MissingConclusion, OutOfOrderMarkers
from .extract import (
    ExtractionRecord,
    Outcome,
    extract_record,
    read_extracted,
)
from .jsonl import check_encodable, decode, iter_unique, read_json, write_jsonl
from .mix import DEFAULT_MIX, jurisdiction_counts
from .textmetrics import DEFAULT_THRESHOLD, check_threshold

logger = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    input_dir: str | None = None    # directory of .txt/.rtf sources
    corpus_file: str | None = None  # pre-built corpus.jsonl, wins over input_dir
    jurisdiction: str = "generic"   # label stamped on ingested documents
    profile: str = "generic"        # built-in keyword profile name
    profile_file: str | None = None  # JSON profile path, wins over `profile`
    jaro_threshold: float = DEFAULT_THRESHOLD  # flow-graph contraction threshold
    a: float = networks_mod.NetworkParams.a
    b: float = networks_mod.NetworkParams.b
    min_cases: int = networks_mod.NetworkParams.min_cases
    collab_min: int = networks_mod.NetworkParams.collab_min
    k: int = networks_mod.NetworkParams.k
    damping: float = ranking_mod.PageRankParams.damping
    tol: float = ranking_mod.PageRankParams.tol
    max_iter: int = ranking_mod.PageRankParams.max_iter
    seed: int = 7
    n_docs: int = 100
    mix: dict[str, float] = field(default_factory=DEFAULT_MIX.copy)
    output_dir: str = "out"


_HINTS = typing.get_type_hints(PipelineConfig)
_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def _field_class(name: str) -> type:
    """The field's annotation as a plain class: int, float, str or dict."""
    hint = _HINTS[name]
    if typing.get_origin(hint) is dict:
        return dict
    return next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))


def _check_strings(cfg: PipelineConfig, command: str = "") -> None:
    """ValueError naming a key with a string no UTF-8 file holds: any key for `run`, whose
    run_manifest.json holds every field, else the keys other artifacts hold."""
    for name in _FIELDS if command == "run" else ("jurisdiction", "mix"):
        check_encodable(getattr(cfg, name), f"{name}: ")


# ---------------------------------------------------------------------------
# The pipeline's values, and the stages that write them


class Pipeline:
    """The values one command computes or reads, each at most once, on first use.

    A value kept in an artifact is computed only by a command with the stage
    that writes it; any other command reads it back from the output directory.
    Stages write their artifacts through `out`, which run_command points at the staging directory.
    Whether the command ingests, and so needs input_dir, is decided and checked
    once, with the parameters, before anything touches the output directory.
    """

    def __init__(self, cfg: PipelineConfig, name: str):
        """Range-check every parameter with its owner's check, keeping the checked objects."""
        _check_strings(cfg, name)
        self.params = networks_mod.NetworkParams(a=cfg.a, b=cfg.b, min_cases=cfg.min_cases,
                                                 collab_min=cfg.collab_min, k=cfg.k)
        self.pagerank_params = ranking_mod.PageRankParams(damping=cfg.damping, tol=cfg.tol,
                                                          max_iter=cfg.max_iter)
        check_threshold(cfg.jaro_threshold)
        jurisdiction_counts(cfg.n_docs, cfg.mix)
        self.profile = (read_json(cfg.profile_file, segmenter_mod.KeywordProfile, "profile")
                        if cfg.profile_file else segmenter_mod.get_profile(cfg.profile))
        # ingest reads input_dir; run does too unless corpus_file, which wins, is set
        self.ingests = name == "ingest" or name == "run" and not cfg.corpus_file
        if self.ingests and not cfg.input_dir:
            raise ValueError("ingest needs input_dir" if name == "ingest"
                             else "run needs corpus_file or input_dir")
        self.cfg, self.stages = cfg, COMMANDS[name].stages

    def _input(self, name: str, producer: str) -> Path:
        path = Path(self.cfg.output_dir) / name
        if not path.exists():
            raise InputError(f"missing input {path}; run the '{producer}' stage first")
        return path

    def corpus_path(self) -> Path:
        if self.cfg.corpus_file:
            return Path(self.cfg.corpus_file)  # read_corpus names it if it cannot be read
        return self._input("corpus.jsonl", "ingest or synth")

    @cached_property
    def corpus(self) -> tuple[list, int]:
        """dedupe_documents of input_dir's sources if this command ingests, else of
        corpus_file or of the output directory's corpus.jsonl."""
        from . import corpus as corpus_mod  # only the commands that read a corpus load it

        skipped = 0
        if not self.ingests:
            path = self.corpus_path()
            docs = corpus_mod.read_corpus(path)
            if not docs:
                raise InputError(f"{path}: corpus is empty")
        else:
            root = Path(self.cfg.input_dir)
            if not root.is_dir():
                raise InputError(f"input directory not found: {root}")
            docs = []
            for path in sorted(root.rglob("*")):
                if path.suffix.lower() not in (".txt", ".rtf") or not path.is_file():
                    continue
                try:
                    docs.append(corpus_mod.ingest(path, self.cfg.jurisdiction))
                except InputError as exc:
                    skipped += 1
                    logger.warning("skipping %s", exc)  # exc names the path
            if not docs:
                raise InputError(f"no ingestable documents under {root}")
        docs, dropped = corpus_mod.dedupe_documents(docs)
        logger.info(
            "ingested %d documents (%d unreadable skipped, %d duplicates dropped)",
            len(docs), skipped, dropped,
        )
        return docs, dropped

    @cached_property
    def segmented(self) -> tuple[dict, list]:
        """({doc_id: judgment}, failures); failures are known only where segmented."""
        docs = self.corpus[0]
        segmented = {}
        failures = []
        if _segments in self.stages:
            for doc in docs:
                try:
                    segmented[doc.doc_id] = segmenter_mod.segment(doc, self.profile)
                except (MissingConclusion, OutOfOrderMarkers) as exc:
                    failures.append((doc.doc_id, str(exc)))
                    logger.warning("segmentation failed: %s", exc)
            logger.info("segmented %d documents, %d failures", len(segmented), len(failures))
            return segmented, failures
        texts = {doc.doc_id: doc.text for doc in docs}
        path = self._input("segments.jsonl", "segment")
        for lineno, seg in iter_unique(path, segmenter_mod.SegmentedJudgment):
            if seg.doc_id in texts:
                try:
                    seg.check_offsets(texts[seg.doc_id])
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: {exc}") from None
            segmented[seg.doc_id] = seg
        return segmented, failures

    @cached_property
    def records(self) -> list[ExtractionRecord]:
        """One record per segmented document, sorted by id."""
        if _extracted not in self.stages:
            records = read_extracted(self._input("extracted.jsonl", "extract"))
        else:
            segmented = self.segmented[0]
            records = [extract_record(doc, segmented[doc.doc_id])
                       for doc in self.corpus[0] if doc.doc_id in segmented]
            logger.info("extracted %d records", len(records))
        return sorted(records, key=lambda r: r.doc_id)

    @cached_property
    def lawyers(self) -> dict[str, networks_mod.LawyerFacts]:
        return networks_mod.lawyer_tallies(self.records)

    @cached_property
    def opposing(self) -> networks_mod.OpposingNetwork:
        return networks_mod.build_opposing_network(self.records, self.lawyers, self.params)

    @cached_property
    def collaboration(self) -> networks_mod.CollaborationGraph:
        return networks_mod.build_collaboration_network(self.records, self.params)

    @cached_property
    def cases(self) -> networks_mod.CaseGraph:
        return networks_mod.build_case_graph(self.records, self.params)

    @cached_property
    def partition(self) -> networks_mod.CommunityPartition:
        return networks_mod.detect_communities(self.cases)

    @cached_property
    def rows(self) -> list[ranking_mod.RankRow]:
        """The ranking over the opposing network."""
        scores = ranking_mod.pagerank(self.opposing, self.pagerank_params)
        return ranking_mod.rank_table(self.opposing, scores)


def _synth(p: Pipeline) -> None:
    from . import corpus as corpus_mod, synth  # the generator is loaded for this command only

    cfg = p.cfg
    docs, truth = synth.generate_synthetic_corpus(seed=cfg.seed, n_docs=cfg.n_docs, mix=cfg.mix)
    corpus_mod.write_corpus(p.out("corpus.jsonl"), docs)
    synth.write_truth(p.out("truth.jsonl"), truth)
    logger.info("wrote %d synthetic documents", len(docs))


def _corpus(p: Pipeline) -> None:
    """corpus.jsonl, when the corpus comes from input_dir's sources."""
    if p.ingests:
        from . import corpus as corpus_mod

        corpus_mod.write_corpus(p.out("corpus.jsonl"), p.corpus[0])


def _segments(p: Pipeline) -> None:
    write_jsonl(p.out("segments.jsonl"), p.segmented[0].values())  # in the corpus's doc_id order


def _extracted(p: Pipeline) -> None:
    write_jsonl(p.out("extracted.jsonl"), p.records)


def _networks(p: Pipeline) -> None:
    networks_mod.write_opposing(p.out("opposing"), p.opposing)
    networks_mod.write_collaboration(p.out("collaboration"), p.collaboration)
    networks_mod.write_case(p.out(f"cases_k{p.cfg.k}"), p.cases, p.partition.assignment)
    logger.info("networks: opposing %d/%d, collaboration %d/%d, cases %d/%d",
                len(p.opposing.nodes), len(p.opposing.edges), len(p.collaboration.nodes),
                len(p.collaboration.edges), len(p.cases.nodes), p.cases.edge_count)


def _communities(p: Pipeline) -> None:
    """Size and appellant win rate of each community."""
    networks_mod.write_communities_csv(p.out("communities.csv"), p.partition, p.cases.nodes)
    logger.info("found %d communities", len(p.partition.sizes))


def _rank(p: Pipeline) -> None:
    ranking_mod.write_rankings_csv(p.out("rankings.csv"), p.rows)
    logger.info("ranked %d lawyers", len(p.rows))


def _flowgraph(p: Pipeline) -> None:
    by_jur: dict[str, list] = {}
    for doc in p.corpus[0]:
        name = f"flow_{doc.jurisdiction}.graphml"  # most file systems cap a name at 255 bytes
        if any(c in name for c in ("/", os.altsep, "\0") if c) or len(name.encode()) > 255:
            raise InputError(
                f"{p.corpus_path()}: document {doc.doc_id}: jurisdiction "
                f"{doc.jurisdiction!r} cannot be part of a file name")
        by_jur.setdefault(doc.jurisdiction, []).append(doc)
    for jur in sorted(by_jur):
        graph = segmenter_mod.build_flow_graph(by_jur[jur], p.cfg.jaro_threshold)
        segmenter_mod.write_flow(p.out(f"flow_{jur}"), graph)
        logger.info("flow graph %s: %d nodes, %d edges", jur, len(graph.nodes), len(graph.edges))


def _manifest(p: Pipeline) -> None:
    """The configuration and the counts of every stage."""
    docs, duplicates = p.corpus
    records = p.records
    outcomes = {o: sum(rec.outcome is o for rec in records) for o in Outcome}
    confirmed = outcomes[Outcome.APPELLEE_WINS]
    determined = confirmed + outcomes[Outcome.APPELLANT_WINS]
    counts = {
        "docs_ingested": len(docs),
        "duplicates_dropped": duplicates,
        "segmentation_failures": len(p.segmented[1]),
        "docs_extracted": len(records),
        "docs_skipped_no_lawyers": sum(
            not (rec.appellant_lawyers or rec.appellee_lawyers) for rec in records),
        "outcomes": {o.value: n for o, n in outcomes.items()},
        "rejection_rate": confirmed / determined if determined else None,
        "lawyers_seen": len(p.lawyers),
        "lawyers_ranked": len(p.rows),
        "opposing_nodes": len(p.opposing.nodes),
        "opposing_edges": len(p.opposing.edges),
        "collaboration_nodes": len(p.collaboration.nodes),
        "collaboration_edges": len(p.collaboration.edges),
        "case_nodes": len(p.cases.nodes),
        "case_edges": p.cases.edge_count,
        "communities": len(p.partition.sizes),
    }
    p.out("run_manifest.json").write_text(json.dumps(
        {"config": dataclasses.asdict(p.cfg), "counts": counts},
        indent=2, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8")
    logger.info("pipeline done: %d docs, %d ranked lawyers, %d communities",
                len(docs), len(p.rows), len(p.partition.sizes))


# ---------------------------------------------------------------------------
# Commands


class Command(typing.NamedTuple):
    help: str
    stages: tuple[typing.Callable[[Pipeline], None], ...]


COMMANDS = {
    "synth": Command("generate a synthetic corpus with ground truth", (_synth,)),
    "ingest": Command("read .txt/.rtf sources into corpus.jsonl", (_corpus,)),
    "segment": Command("cut corpus documents into segments", (_segments,)),
    "extract": Command("extract lawyers, articles and outcomes", (_extracted,)),
    "networks": Command("build opposing, collaboration and case graphs", (_networks,)),
    "rank": Command("compute the lawyer ranking table", (_rank,)),
    "communities": Command("detect communities on the case graph", (_communities,)),
    "flowgraph": Command("build per-jurisdiction sentence flow graphs", (_flowgraph,)),
    "run": Command("run the whole pipeline and write all artifacts",
                   (_corpus, _segments, _extracted, _networks, _communities, _rank,
                    _manifest)),
}


def run_command(cfg: PipelineConfig, name: str) -> int:
    """Check the parameters, then run one command's stages into a staging
    directory and move each artifact into output_dir, run_manifest.json last.

    A parameter error leaves output_dir untouched; past that, every command first
    removes an earlier manifest, and one that fails or is interrupted leaves the
    other old files as they were and no staging directory. The
    staging directory is named after the process, so that a later command
    removes it if the process was killed (on POSIX, where os.kill(pid, 0)
    tests a process; on Windows it would interrupt it).
    """
    pipeline = Pipeline(cfg, name)
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"output_dir {out} is not a usable directory: {exc}") from None
    (out / "run_manifest.json").unlink(missing_ok=True)
    for stale in out.glob(".courtnet-*-*") if os.name == "posix" else ():
        try:
            os.kill(int(stale.name.split("-")[1]), 0)
        except ProcessLookupError:  # its command was killed
            shutil.rmtree(stale, ignore_errors=True)
        except (ValueError, OverflowError, OSError):  # no pid, or another user's live process
            pass
    staging = Path(tempfile.mkdtemp(prefix=f".courtnet-{os.getpid()}-", dir=out))
    pipeline.out = staging.joinpath
    try:
        for stage in pipeline.stages:
            stage(pipeline)
        staged = sorted(staging.iterdir(), key=lambda path: path.name == "run_manifest.json")
        for dest in (out / path.name for path in staged):  # os.replace cannot overwrite these
            if dest.is_dir() and not dest.is_symlink():
                raise OSError(f"cannot replace {dest}: it is a directory")
        for path in staged:
            os.replace(path, out / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return 0


# ---------------------------------------------------------------------------
# Argument handling


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (config errors, per contract); a
    dash-led argument that float() reads, such as -1e-05 or -inf, is a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\.?\d|inf|nan)", re.I)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _json_value(text: str):
    """A flag's JSON value; argparse itself reports only ValueError and TypeError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise argparse.ArgumentTypeError(f"not a JSON value ({exc})") from None


def _build_parser() -> _Parser:
    """The parser: every subcommand takes --verbose, --config and one flag per config field."""
    parser = _Parser(prog="courtnet", description=__doc__)
    parser.add_argument(
        "--print-default-config", action="store_true",
        help="print the default configuration as JSON and exit",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    # every subcommand's options, -h first as argparse puts it (subparsers take add_help=False)
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("-h", "--help", action="help", help="show this help message and exit")
    # accepted after the subcommand too; SUPPRESS keeps a --verbose given before it
    options.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS,
                         help="log at INFO level")
    options.add_argument("--config", help="JSON config file")
    for f in _FIELDS.values():
        cls = _field_class(f.name)
        options.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                             type=_json_value if cls is dict else cls)
    sub = parser.add_subparsers(dest="command")
    for name, cmd in COMMANDS.items():
        sub.add_parser(name, help=cmd.help, parents=[options], add_help=False)
    return parser


def _make_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = (read_json(args.config, PipelineConfig, "config", _check_strings) if args.config
           else PipelineConfig())
    flags = {name: getattr(args, name) for name in _FIELDS if getattr(args, name) is not None}
    try:
        return decode(PipelineConfig, {**dataclasses.asdict(cfg), **flags})
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if args.print_default_config:
        print(json.dumps(dataclasses.asdict(PipelineConfig()), indent=2, sort_keys=True))
        return 0
    if not args.command:
        print("courtnet: a subcommand is required (see --help)", file=sys.stderr)
        return 1
    try:
        return run_command(_make_config(args), args.command)
    except KeyboardInterrupt:
        print("courtnet: interrupted", file=sys.stderr)
        return 130
    except InputError as exc:
        print(f"courtnet: input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"courtnet: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a failed write, or a failed flowgraph shard
        print(f"courtnet: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
