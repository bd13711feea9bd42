"""In-process tracing of one courtnet CLI command, and the per-layer metrics.

Run as a script, this module executes one CLI command in-process with the
program's public functions wrapped, then writes the trace as JSON:

    python3 perfbench/tracing.py TRACE_JSON SRC_DIR ARG...

Every function in SPANNED records a span: name, start, end, thread, the
enclosing span on the same thread, whether it raised, the process's peak RSS
at its end, and a note taken from its result (see NOTES). The functions in
COUNTED are only counted, because a span per call would swamp the timing.
Each wrapper replaces the function wherever a courtnet module bound it by
name. A name the program no longer has is listed as absent, not an error.

Imported, the module gives `layer_metrics`, which folds the traces of one
repetition into the per-layer metrics named in PER_LAYER.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import threading
import time

SPANNED = {
    "corpus": ["ingest", "strip_rtf", "write_corpus", "read_corpus"],
    "segmenter": ["segment", "build_flow_graph", "split_sentences"],
    "extract": ["extract_lawyers", "extract_articles", "classify_outcome",
                "read_extracted"],
    "networks": ["build_opposing_network", "build_collaboration_network",
                 "build_case_graph", "detect_communities", "read_case_graphml"],
    "graphio": ["write_graphml", "write_dot", "read_graphml"],
    "ranking": ["pagerank", "rank_table"],
    "cli": ["main"],
}
COUNTED = {"textmetrics": ["fold", "jaro_similarity"]}

# jaro_similarity calls scoring above this count as matches; it is the
# default of both the segmentation profiles and the flow-graph contraction
JARO_THRESHOLD = 0.8


def _bytes_written(args, kwargs, result):
    target = args[0] if args else kwargs["path"]
    return target.tell() if hasattr(target, "tell") else os.path.getsize(target)


# a number read from each call's arguments or result; None when the
# program's types no longer have what the note reads
NOTES = {
    "networks.build_case_graph": lambda a, kw, r: len(r.edges),
    "networks.detect_communities": lambda a, kw, r: len(r.sizes),
    "extract.classify_outcome": lambda a, kw, r: int(r[0].value == "undetermined"),
    "graphio.write_graphml": _bytes_written,
    "graphio.write_dot": _bytes_written,
}


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans and counters kept in memory; safe across the program's threads."""

    def __init__(self):
        self.spans: list = []
        self._thread_counts: list[dict[str, int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for counts in self._thread_counts:
            for key, n in counts.items():
                total[key] = total.get(key, 0) + n
        return total

    def _my_counts(self) -> dict[str, int]:
        # one dict per thread, so counting takes no lock on the hot path
        counts = self._local.__dict__.get("counts")
        if counts is None:
            counts = self._local.counts = {}
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def spanned(self, name, fn):
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            with self._lock:
                sid = len(self.spans)
                self.spans.append(None)
            stack.append(sid)
            failed = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = None
                if note is not None and not failed:
                    try:
                        value = note(args, kwargs, result)
                    except (AttributeError, TypeError, IndexError, KeyError, OSError):
                        value = None
                self.spans[sid] = [name, start, end, threading.get_ident(),
                                   parent, failed, _peak_rss_kb(), value]

        return wrapper

    def counted(self, name, fn):
        matches = name + ".matches"
        is_jaro = name == "textmetrics.jaro_similarity"

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = self._my_counts()
            counts[name] = counts.get(name, 0) + 1
            if is_jaro and result > JARO_THRESHOLD:
                counts[matches] = counts.get(matches, 0) + 1
            return result

        return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap the traced functions everywhere courtnet bound them; return absent names."""
    absent = []
    wrappers = {}  # id(original) -> (original, wrapper)
    for table, make in ((SPANNED, tracer.spanned), (COUNTED, tracer.counted)):
        for short, names in table.items():
            try:
                module = importlib.import_module(f"courtnet.{short}")
            except ImportError:
                module = None
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    absent.append(f"{short}.{name}")
                    continue
                wrappers[id(fn)] = (fn, make(f"{short}.{name}", fn))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "courtnet" and not mod_name.startswith("courtnet."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return absent


def _main(argv: list[str]) -> int:
    out_path, src_dir, *cli_args = argv
    sys.path.insert(0, src_dir)
    import courtnet
    if not os.path.abspath(courtnet.__file__).startswith(os.path.abspath(src_dir)):
        print(f"tracing: courtnet imported from {courtnet.__file__}, not {src_dir}",
              file=sys.stderr)
        return 3
    tracer = Tracer()
    absent = install(tracer)
    from courtnet import cli
    if "cli.main" in absent:
        print("tracing: courtnet.cli.main is missing", file=sys.stderr)
        return 3
    rc = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "absent": absent, "spans": tracer.spans,
                   "counts": tracer.counts}, fh)
    return rc


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, better); every one is reported on every
# workload, as 0 where the workload never reaches the layer.

PER_LAYER = [
    ("corpus.ingest_s", "s", "lower"),
    ("corpus.strip_rtf_s", "s", "lower"),
    ("corpus.write_corpus_s", "s", "lower"),
    ("corpus.read_corpus_s", "s", "lower"),
    ("corpus.ingest_calls", "count", "lower"),
    ("corpus.ingest_failed", "count", "lower"),
    ("segmenter.segment_busy_s", "s", "lower"),
    ("segmenter.segment_wall_s", "s", "lower"),
    ("segmenter.segment_calls", "count", "lower"),
    ("segmenter.segment_failed", "count", "lower"),
    ("segmenter.flow_graph_s", "s", "lower"),
    ("segmenter.split_sentences_s", "s", "lower"),
    ("textmetrics.jaro_calls", "count", "lower"),
    ("textmetrics.fold_calls", "count", "lower"),
    ("textmetrics.jaro_match_frac", "frac", "higher"),
    ("extract.lawyers_s", "s", "lower"),
    ("extract.articles_s", "s", "lower"),
    ("extract.outcome_s", "s", "lower"),
    ("extract.read_s", "s", "lower"),
    ("extract.records", "count", "higher"),
    ("extract.undetermined", "count", "lower"),
    ("networks.case_graph_s", "s", "lower"),
    ("networks.case_edges", "count", "lower"),
    ("networks.case_graph_rss_mb", "MB", "lower"),
    ("networks.communities_s", "s", "lower"),
    ("networks.communities", "count", "lower"),
    ("networks.case_read_s", "s", "lower"),
    ("networks.case_read_rss_mb", "MB", "lower"),
    ("networks.opposing_s", "s", "lower"),
    ("networks.collab_s", "s", "lower"),
    ("graphio.write_graphml_s", "s", "lower"),
    ("graphio.write_dot_s", "s", "lower"),
    ("graphio.read_graphml_s", "s", "lower"),
    ("graphio.bytes_written", "count", "lower"),
    ("ranking.pagerank_s", "s", "lower"),
    ("ranking.rank_table_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

# metric -> (traced function, how its spans are folded)
_FROM_SPANS = {
    "corpus.ingest_s": ("corpus.ingest", "seconds"),
    "corpus.strip_rtf_s": ("corpus.strip_rtf", "seconds"),
    "corpus.write_corpus_s": ("corpus.write_corpus", "seconds"),
    "corpus.read_corpus_s": ("corpus.read_corpus", "seconds"),
    "corpus.ingest_calls": ("corpus.ingest", "calls"),
    "corpus.ingest_failed": ("corpus.ingest", "failed"),
    "segmenter.segment_busy_s": ("segmenter.segment", "seconds"),
    "segmenter.segment_wall_s": ("segmenter.segment", "wall"),
    "segmenter.segment_calls": ("segmenter.segment", "calls"),
    "segmenter.segment_failed": ("segmenter.segment", "failed"),
    "segmenter.flow_graph_s": ("segmenter.build_flow_graph", "seconds"),
    "segmenter.split_sentences_s": ("segmenter.split_sentences", "seconds"),
    "extract.lawyers_s": ("extract.extract_lawyers", "seconds"),
    "extract.articles_s": ("extract.extract_articles", "seconds"),
    "extract.outcome_s": ("extract.classify_outcome", "seconds"),
    "extract.read_s": ("extract.read_extracted", "seconds"),
    "extract.records": ("extract.classify_outcome", "calls"),
    "extract.undetermined": ("extract.classify_outcome", "notes"),
    "networks.case_graph_s": ("networks.build_case_graph", "seconds"),
    "networks.case_edges": ("networks.build_case_graph", "notes"),
    "networks.case_graph_rss_mb": ("networks.build_case_graph", "rss"),
    "networks.communities_s": ("networks.detect_communities", "seconds"),
    "networks.communities": ("networks.detect_communities", "notes"),
    "networks.case_read_s": ("networks.read_case_graphml", "seconds"),
    "networks.case_read_rss_mb": ("networks.read_case_graphml", "rss"),
    "networks.opposing_s": ("networks.build_opposing_network", "seconds"),
    "networks.collab_s": ("networks.build_collaboration_network", "seconds"),
    "graphio.write_graphml_s": ("graphio.write_graphml", "seconds"),
    "graphio.write_dot_s": ("graphio.write_dot", "seconds"),
    "graphio.read_graphml_s": ("graphio.read_graphml", "seconds"),
    "ranking.pagerank_s": ("ranking.pagerank", "seconds"),
    "ranking.rank_table_s": ("ranking.rank_table", "seconds"),
}
_BYTES_FROM = ("graphio.write_graphml", "graphio.write_dot")


def _fold(spans, how):
    if how == "seconds":
        return sum(s[2] - s[1] for s in spans)
    if how == "calls":
        return len(spans)
    if how == "failed":
        return sum(1 for s in spans if s[5])
    if how == "wall":
        return max(s[2] for s in spans) - min(s[1] for s in spans) if spans else 0.0
    if how == "rss":
        return max((s[6] for s in spans), default=0) / 1024.0
    return sum(s[7] for s in spans if s[7] is not None)


def _self_time(spans) -> float:
    """cli.main's duration minus the union of every other span inside it."""
    total = 0.0
    for root in (s for s in spans if s[0] == "cli.main"):
        lo, hi = root[1], root[2]
        inner = sorted((max(s[1], lo), min(s[2], hi)) for s in spans
                       if s is not root and s[1] < hi and s[2] > lo)
        covered = 0.0
        cur_start = cur_end = None
        for start, end in inner:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        total += (hi - lo) - covered
    return total


def layer_metrics(traces: list[dict], overhead_frac: float) -> tuple[dict, list[str]]:
    """Fold the traces of one repetition (one per CLI command) into PER_LAYER.

    Sums run over commands, except the RSS marks, which take the largest, and
    segment_wall_s, which adds each command's first-start-to-last-end span.
    Returns the metric values and the metrics that could not be measured.
    """
    absent_fns = set()
    for trace in traces:
        absent_fns.update(trace["absent"])
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for metric, (fn, how) in _FROM_SPANS.items():
        per_command = [_fold([s for s in t["spans"] if s[0] == fn], how) for t in traces]
        values[metric] = max(per_command, default=0.0) if how == "rss" else sum(per_command)
    values["graphio.bytes_written"] = sum(
        _fold([s for s in t["spans"] if s[0] in _BYTES_FROM], "notes") for t in traces
    )
    counts = {}
    for trace in traces:
        for key, n in trace["counts"].items():
            counts[key] = counts.get(key, 0) + n
    jaro = counts.get("textmetrics.jaro_similarity", 0)
    values["textmetrics.jaro_calls"] = jaro
    values["textmetrics.fold_calls"] = counts.get("textmetrics.fold", 0)
    values["textmetrics.jaro_match_frac"] = (
        counts.get("textmetrics.jaro_similarity.matches", 0) / jaro if jaro else 0.0
    )
    values["cli.self_s"] = sum(_self_time(t["spans"]) for t in traces)
    values["trace.overhead_frac"] = overhead_frac

    # a note that could not be read counts as absent too
    unreadable = {s[0] for t in traces for s in t["spans"]
                  if s[0] in NOTES and not s[5] and s[7] is None}
    absent = [m for m, (fn, how) in _FROM_SPANS.items()
              if fn in absent_fns or (how == "notes" and fn in unreadable)]
    if (absent_fns | unreadable) & set(_BYTES_FROM):
        absent.append("graphio.bytes_written")
    for fn, metrics in (("textmetrics.jaro_similarity",
                         ["textmetrics.jaro_calls", "textmetrics.jaro_match_frac"]),
                        ("textmetrics.fold", ["textmetrics.fold_calls"])):
        if fn in absent_fns:
            absent.extend(metrics)
    return values, sorted(absent)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
