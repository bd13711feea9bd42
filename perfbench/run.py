"""courtnet benchmark: one workload per invocation, run against the CLI.

    python3 perfbench/run.py --workload run_1k --seed 7 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports courtnet from the
checkout's `src/` and writes only under `.perfbench_work/`, which it removes
when it ends.

The load is a closed loop with one client: one CLI command at a time, each in
a fresh process, as a batch job runs. A run first sets up the workload's
inputs (timed as `setup_s`), then repeats the workload's timed commands until
`--seconds` have passed, and at least twice. Every repetition's outputs are
checked (checks.py) and hashed; a repetition fails when a command exits
non-zero, its outputs fail a check, or its hashes differ from the first
repetition's.

With `--trace 0` the last line reports the end-to-end metrics: `docs_per_s`
(median over repetitions), `peak_rss_mb` (median over repetitions of the
largest peak RSS of any CLI process in it) and `setup_s` (median over the
set-ups). With `--trace 1` the run also makes one more repetition with the
CLI traced in-process (tracing.py), and the set-up's program stages are
traced too; the last line then reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(tracing.__file__).resolve()
WORK_ROOT = ROOT / ".perfbench_work"

# same entry point as the installed `courtnet` script
CLI_ENTRY = "import sys; from courtnet.cli import main; sys.exit(main())"
MIN_REPS = 2
CALL_TIMEOUT_S = 170.0
POLL_S = 0.005


# ---------------------------------------------------------------------------
# Inputs

def rtf_encode(text: str) -> str:
    """Minimal RTF for a plain text: \\par newlines, escaped \\ { }, cp1252 \\'hh."""
    out = ["{\\rtf1\\ansi\\ansicpg1252\\deff0{\\fonttbl{\\f0 Times New Roman;}}\\f0\\fs24 "]
    for ch in text:
        if ch == "\n":
            out.append("\\par\n")
        elif ch in "\\{}":
            out.append("\\" + ch)
        elif ord(ch) < 128:
            out.append(ch)
        else:
            out.append("".join(f"\\'{b:02x}" for b in ch.encode("cp1252")))
    out.append("}\n")
    return "".join(out)


def write_sources(corpus: Path, dest: Path) -> None:
    """One source file per document: every 4th as .rtf, the rest as UTF-8 .txt."""
    dest.mkdir()
    for i, row in enumerate(checks.read_jsonl(corpus)):
        if i % 4 == 3:
            (dest / f"doc_{i:05d}.rtf").write_bytes(rtf_encode(row["text"]).encode("ascii"))
        else:
            (dest / f"doc_{i:05d}.txt").write_bytes(row["text"].encode("utf-8"))


# ---------------------------------------------------------------------------
# Workloads. Paths are relative to the run's work directory, where every CLI
# command runs, so that artifacts naming a path hash the same in any checkout.

GEN = "gen"
OUT = "out"


@dataclass(frozen=True)
class Workload:
    why: str
    n_docs: int
    setup_repeats: int
    prepare: list[list[str]]   # program stages run in set-up, traced with --trace 1
    timed: list[list[str]]
    check: Callable[[Path, Path], list[str]]
    sources: bool = False      # set-up writes gen/corpus.jsonl out as source files
    inputs: tuple[str, ...] = ()  # gen files each repetition starts from, not hashed


WORKLOADS = {
    "run_1k": Workload(
        why="run --input-dir over 1,000 judgments, 1 in 4 as RTF: the path users take; "
            "segmentation, Jaro marker matching, ingest and extraction",
        n_docs=1000,
        setup_repeats=3,
        prepare=[],
        timed=[["run", "--input-dir", f"{GEN}/sources", "--output-dir", OUT]],
        check=checks.check_run,
        sources=True,
    ),
    "graphs_3k": Workload(
        why="staged networks, rank, communities on 3,000 records: case-graph join, "
            "Louvain, GraphML write and re-read; no segmentation, so text-layer changes "
            "should not move it",
        n_docs=3000,
        # one set-up here is synth, segment and extract of 3,000 documents, 15 to
        # 30 s; a second would push the run past its time budget
        setup_repeats=1,
        prepare=[["segment", "--output-dir", GEN], ["extract", "--output-dir", GEN]],
        timed=[["networks", "--output-dir", OUT], ["rank", "--output-dir", OUT],
               ["communities", "--output-dir", OUT]],
        check=lambda gen, out: checks.check_graphs(gen, out, 3000),
        inputs=("extracted.jsonl",),
    ),
    "flow_80": Workload(
        why="flowgraph over 80 judgments: all-pairs Jaro contraction of long sentences "
            "(about 59k Jaro calls); no graph layer",
        n_docs=80,
        setup_repeats=3,
        prepare=[],
        timed=[["flowgraph", "--corpus-file", f"{GEN}/corpus.jsonl", "--output-dir", OUT]],
        check=checks.check_flow,
    ),
}


# ---------------------------------------------------------------------------
# Running CLI commands

class BenchError(Exception):
    """The run cannot produce a result, for instance because set-up failed."""


@dataclass
class Call:
    rc: int | None   # None when the command overran CALL_TIMEOUT_S
    wall_s: float
    peak_rss_mb: float


class Cli:
    """Starts one CLI process at a time in the work directory and waits for it."""

    def __init__(self, work: Path):
        self.work = work
        self.log = work / "cli.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def __call__(self, args: list[str], trace_file: Path | None = None) -> Call:
        if trace_file is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *args]
        else:
            cmd = [sys.executable, str(TRACER), str(trace_file), str(SRC), *args]
        with open(self.log, "ab") as log:
            log.write(("$ courtnet " + " ".join(args) + "\n").encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            try:
                status, usage = self._wait(proc, start + CALL_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        rc = None if status is None else os.waitstatus_to_exitcode(status)
        proc.returncode = -9 if rc is None else rc  # reaped here, not by Popen
        return Call(rc, wall, usage.ru_maxrss / 1024.0)

    @staticmethod
    def _wait(proc, deadline):
        # os.wait4 gives this child's own peak RSS; polling lets a hung command be killed
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                return status, usage
            if time.perf_counter() > deadline:
                proc.kill()
                _, _, usage = os.wait4(proc.pid, 0)
                return None, usage
            time.sleep(POLL_S)

    def log_tail(self, lines: int = 15) -> str:
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# One run

@dataclass
class Rep:
    wall_s: float
    peak_rss_mb: float
    hashes: dict[str, str]
    problems: list[str]
    traces: list[dict] | None = None


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.gen = work / GEN
        self.out = work / OUT
        self.cli = Cli(work)
        self.checked: dict[tuple, list[str]] = {}  # outputs already checked, by hashes

    def _must(self, call: Call, what: str) -> Call:
        if call.rc != 0:
            raise BenchError(f"set-up step `{what}` exited {call.rc}:\n{self.cli.log_tail()}")
        return call

    def setup(self, traced: bool) -> tuple[float, list[dict]]:
        """Generate and prepare the inputs; returns the set-up time and any traces."""
        shutil.rmtree(self.gen, ignore_errors=True)
        traces = []
        start = time.perf_counter()
        self._must(self.cli(["synth", "--output-dir", GEN, "--seed", str(self.seed),
                             "--n-docs", str(self.w.n_docs)]), "synth")
        if self.w.sources:
            write_sources(self.gen / "corpus.jsonl", self.gen / "sources")
        for i, args in enumerate(self.w.prepare):
            trace_file = self.work / f"prepare_{i}.json" if traced else None
            self._must(self.cli(args, trace_file), " ".join(args))
            if traced:
                traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
        return time.perf_counter() - start, traces

    def rep(self, traced: bool) -> Rep:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        for name in self.w.inputs:
            shutil.copyfile(self.gen / name, self.out / name)
        wall = 0.0
        peak = 0.0
        problems = []
        traces = [] if traced else None
        for i, args in enumerate(self.w.timed):
            trace_file = self.work / f"timed_{i}.json" if traced else None
            call = self.cli(args, trace_file)
            wall += call.wall_s
            peak = max(peak, call.peak_rss_mb)
            if call.rc != 0:
                problems.append(f"`courtnet {' '.join(args)}` exited {call.rc}")
                print(self.cli.log_tail(), file=sys.stderr)
                break
            if traced:
                traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
        hashes = {p.name: _sha256(p) for p in sorted(self.out.iterdir())
                  if p.is_file() and p.name not in self.w.inputs}
        if not problems:
            key = tuple(sorted(hashes.items()))
            if key not in self.checked:
                try:
                    self.checked[key] = self.w.check(self.gen, self.out)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    self.checked[key] = [f"unreadable output: {exc!r}"]
            problems = self.checked[key]
        return Rep(wall, peak, hashes, problems, traces)


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    w = WORKLOADS[name]
    work = WORK_ROOT / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(name, seed, work)
        setups = []
        for _ in range(1 if trace else w.setup_repeats):
            seconds_taken, prepare_traces = bench.setup(trace)
            setups.append(seconds_taken)

        reps = []
        start = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
            reps.append(bench.rep(traced=False))
        untraced_median = statistics.median(r.wall_s for r in reps)
        if trace:
            reps.append(bench.rep(traced=True))

        reference = reps[0].hashes
        failed = 0
        for i, r in enumerate(reps):
            if not r.problems and r.hashes != reference:
                r.problems = ["artifact hashes differ from the first repetition: " + ", ".join(
                    sorted(n for n in set(r.hashes) | set(reference)
                           if r.hashes.get(n) != reference.get(n)))]
            if r.problems:
                failed += 1
                for p in r.problems:
                    print(f"repetition {i}: {p}", file=sys.stderr)

        untraced = [r for r in reps if r.traces is None]
        rates = [w.n_docs / r.wall_s for r in untraced]
        q1, _, q3 = statistics.quantiles(rates, n=4, method="inclusive")
        report = {
            "workload": name, "seed": seed, "why": w.why,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "reps": len(untraced),
            "docs_per_s": (statistics.median(rates), q1, q3),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in untraced),
            "setup_s": (statistics.median(setups), len(setups)),
            "attempted": len(reps), "failed": failed,
            "hashes": reference,
        }
        if trace:
            traced_rep = reps[-1]
            overhead = traced_rep.wall_s / untraced_median - 1.0
            report["layers"], report["absent"] = tracing.layer_metrics(
                prepare_traces + (traced_rep.traces or []), overhead)
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _print_report(r: dict, trace: bool) -> dict:
    """Human-readable lines; returns the metrics for the result line."""
    median, q1, q3 = r["docs_per_s"]
    setup, n_setups = r["setup_s"]
    print(f"# workload {r['workload']} (seed {r['seed']}): {r['why']}")
    print(f"# machine: nproc {r['nproc']}, python {r['python']}")
    print(f"docs_per_s   {median:.3f} docs/s  (median of {r['reps']} repetitions; "
          f"quartiles {q1:.3f} .. {q3:.3f})")
    print(f"peak_rss_mb  {r['peak_rss_mb']:.1f} MB")
    print(f"setup_s      {setup:.3f} s  (median of {n_setups})")
    print(f"failed_frac  {r['failed'] / r['attempted']:.3f}  "
          f"({r['failed']} of {r['attempted']} repetitions)")
    for name, digest in sorted(r["hashes"].items()):
        print(f"sha256 {digest}  {name}")
    if not trace:
        return {
            "docs_per_s": {"value": median, "unit": "docs/s"},
            "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup, "unit": "s"},
        }
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    for name, value in r["layers"].items():
        print(f"{name:30s} {value:.6g} {units[name]}")
    if r["absent"]:
        print("# absent (the program no longer has the traced function): "
              + ", ".join(r["absent"]))
    return {name: {"value": value, "unit": units[name]} for name, value in r["layers"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "courtnet" / "cli.py").is_file():
        print(f"perfbench: no courtnet sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = _print_report(report, bool(args.trace))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
