#!/usr/bin/env python3
"""Day-loop benchmark of the v6hitlist pipeline.

Builds perfbench/daybench from this checkout's sources, runs one
workload, checks every op's output, and prints the metrics as the last
line of stdout:

    python3 perfbench/run.py --workload steady|ingest|rescan \\
        --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics (timed with tracing off);
--trace 1 reports the per-layer metrics of the traced replay and
writes it as Chrome trace-event JSON. The line before the result is
the run's environment record. Full reports, raw records and traces go
to <build dir>/results/. The build dir is $CARGO_TARGET_DIR if set,
else .bench_build, under the checkout root.

--record-digests rewrites perfbench/data/digests.json from the
replayed days of a --trace 0 run of the committed seed.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "data" / "digests.json"
WORKLOADS = ("steady", "ingest", "rescan")
COMMITTED_SEED = 42
MAX_THREADS = 4
# Engine threads per workload, at most nproc. rescan's ~3 ms ops on
# four workers stall at the day's barrier whenever the shared host
# preempts one of them: on the same code, its p95 spread by 0.56 over
# four 40 s runs at 4 threads and by 0.06 at 2 (4-5 ms ops).
WORKLOAD_THREADS = {"steady": MAX_THREADS, "ingest": MAX_THREADS,
                    "rescan": 2}
# A run whose second half of timed ops is this much slower or faster
# (median over median) than its first half carries a step, i.e. the
# warm-up ended too early or the machine changed under the run.
HALVES_TOLERANCE = 0.10
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# day_ms.tail percentile: the highest of p90/p95/p99/p99.9 that keeps
# at least ten samples beyond it, with margin, in a 40 s run on steady
# (~1250 ops: p99 would keep ~12) and ingest (~380). rescan (~6000 ops)
# could keep p99, but its p99 falls among ops that a host preemption
# stretched by more than their own length. Fixed, so a faster program
# cannot move the tail to a higher one.
TAIL_PERCENTILE = 95.0

# Spans the traced replay records around each layer call, by the
# metric prefix they report under.
LAYER_SPANS = (
    "sources.collect",
    "hitlist.insert",
    "hitlist.filter_update",
    "hitlist.filter_query",
    "hitlist.refilter",
    "hitlist.construct",
    "apd.candidates",
    "apd.fanout",
    "scan.sync",
    "scan.sweep",
)
NON_APD_SPANS = tuple(s for s in LAYER_SPANS if not s.startswith("apd."))


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


# ------------------------------------------------------------- build

def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no v6hitlist sources next to {BENCH_DIR.name}/ "
             "(CMakeLists.txt and src/ are needed)", 2)
    out_dir.mkdir(parents=True, exist_ok=True)
    logfile = out_dir / "build.log"
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), MAX_THREADS)))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "--target", "daybench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(logfile, "w") as fh:
        for step in steps:
            try:
                proc = subprocess.run(
                    step, stdout=fh, stderr=subprocess.STDOUT,
                    timeout=max(1.0, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {step[:2]} failed: {err}")
            if proc.returncode != 0:
                fh.flush()
                tail = logfile.read_text(errors="replace").splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return out_dir / "daybench"


def source_id():
    """The commit, or a digest of the sources when there is no git."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


# ----------------------------------------------------------- records

class Record:
    FIELDS = ("kind", "day", "ms", "allocs", "probes", "digest", "span",
              "checked", "correct", "islands")

    def __init__(self, row):
        for key, value in zip(self.FIELDS, row):
            setattr(self, key, value)


class Span:
    def __init__(self, index, row):
        self.index = index
        self.name, self.parent, self.start_us, self.dur_us, self.allocs, \
            self.args = row
        self.children = []


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, pct):
    """Nearest-rank percentile and the count of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(pct / 100.0 * len(ordered))))
    return ordered[rank - 1], len(ordered) - rank


def halves_ratio(op_ms, per_batch):
    """Median of the second half of timed ops over the first half, split
    on a batch boundary so both halves cover the same days."""
    batches = len(op_ms) // per_batch
    if batches < 2:
        return 1.0
    cut = (batches // 2) * per_batch
    first, second = op_ms[:cut], op_ms[cut:batches * per_batch]
    return median(second) / median(first)


# ------------------------------------------------------------ checks

def check_ops(raw, records, committed):
    """Per-op output checks; returns (attempted, failed, notes)."""
    notes = []
    replayed = {}
    for r in records:
        if r.kind in ("traced", "replay"):
            replayed.setdefault(r.day, r)
    history = [r for r in records if r.kind == "history"]
    # History days: the pipeline's and the replay's must agree too.
    by_day = {}
    for r in history:
        by_day.setdefault(r.day, set()).add(r.digest)
    for day, digests in sorted(by_day.items()):
        if len(digests) != 1:
            notes.append(f"history day {day} digests differ: {sorted(digests)}")
        elif committed is not None and committed.get(str(day)) not in digests:
            notes.append(f"history day {day} digest differs from the "
                         "committed one")
    history_precision = [r for r in history if r.checked]

    attempted = failed = 0
    for r in records:
        if r.kind not in ("op", "traced"):
            continue
        attempted += 1
        reasons = []
        ref = replayed.get(r.day)
        if ref is None:
            reasons.append("no replay of this day")
        elif r.digest != ref.digest:
            reasons.append(f"digest {r.digest} != replay {ref.digest}")
        if committed is not None:
            want = committed.get(str(r.day))
            if want is None:
                reasons.append("day missing from the committed digests")
            elif want != r.digest:
                reasons.append(f"digest {r.digest} != committed {want}")
        # APD precision of the verdicts this op's output was filtered by:
        # the replay of the same day, or the frozen history (rescan).
        source = ref if ref is not None and ref.checked else (
            history_precision[-1] if history_precision else None)
        if source is None:
            reasons.append("no APD precision check")
        elif source.correct != source.checked:
            reasons.append(f"apd precision {source.correct}/{source.checked}")
        if reasons:
            failed += 1
            if len(notes) < 10:
                notes.append(f"{r.kind} day {r.day}: " + "; ".join(reasons))
    if failed > 10:
        notes.append(f"... {failed} failed ops in total")
    return attempted, failed, notes


# ----------------------------------------------------------- metrics

def build_spans(raw):
    spans = [Span(i, row) for i, row in enumerate(raw["spans"])]
    for s in spans:
        if s.parent >= 0:
            spans[s.parent].children.append(s)
    return spans


def layer_sums(root, name):
    """Sum of duration, allocations and args of `name` spans under root."""
    dur, allocs, args, found = 0.0, 0, {}, False
    stack = list(root.children)
    while stack:
        s = stack.pop()
        if s.name == name:
            found = True
            dur += s.dur_us
            allocs += s.allocs
            for k, v in s.args.items():
                args[k] = args.get(k, 0) + v
        else:
            stack.extend(s.children)
    return (dur / 1000.0, allocs, args) if found else None


def layer_samples(spans, op_roots, name):
    """Per-op sums of one layer, and whether they come from the ops. A
    layer the ops never call (the rescan ops skip everything but the
    scan) is taken from the calls made before the ops instead: history
    days and top-level spans."""
    samples = [x for x in (layer_sums(r, name) for r in op_roots) if x]
    if samples:
        return samples, True
    roots = [s for s in spans if s.parent < 0]
    samples = [x for x in (layer_sums(r, name) for r in roots) if x]
    samples += [(s.dur_us / 1000.0, s.allocs, dict(s.args))
                for s in roots if s.name == name]
    return samples, False


def ratio(a, b):
    return a / b if b else 0.0


def per_layer_metrics(raw, records, attempted, failed):
    spans = build_spans(raw)
    traced = [r for r in records if r.kind == "traced"]
    op_roots = [spans[r.span] for r in traced]
    m = {}
    shares = {}
    traced_day = median([r.ms for r in traced])
    for name in LAYER_SPANS:
        samples, in_ops = layer_samples(spans, op_roots, name)
        m[f"{name}_ms"] = (median([s[0] for s in samples]), "ms")
        m[f"{name}.allocs"] = (median([s[1] for s in samples]), "count")
        # A layer's share of the op; null for layers only set-up calls.
        shares[name] = ratio(m[f"{name}_ms"][0], traced_day) if in_ops \
            else None

    def arg_median(name, fn):
        values = [fn(s[2]) for s in layer_samples(spans, op_roots, name)[0]]
        values = [v for v in values if v is not None]
        return median(values)

    def ns_per(name, key):
        values = [s[0] * 1e6 / s[2][key]
                  for s in layer_samples(spans, op_roots, name)[0]
                  if s[2].get(key)]
        return median(values)

    m["sources.new_rows"] = (
        arg_median("hitlist.insert", lambda a: a.get("admitted")), "count")
    m["hitlist.insert_yield"] = (arg_median(
        "hitlist.insert",
        lambda a: ratio(a["admitted"], a["offered"]) if a.get("offered")
        else None), "ratio")
    m["hitlist.refilter_rows"] = (
        arg_median("hitlist.refilter", lambda a: a.get("rows")), "count")
    m["apd.candidate_prefixes"] = (
        arg_median("apd.candidates", lambda a: a.get("candidates")), "count")
    m["apd.probes"] = (
        arg_median("apd.fanout", lambda a: a.get("probes")), "count")
    m["apd.ns_per_probe"] = (ns_per("apd.fanout", "probes"), "ns")
    m["apd.flips"] = (arg_median("apd.fanout", lambda a: a.get("flips")),
                      "count")
    m["apd.aliased_yield"] = (arg_median(
        "apd.fanout",
        lambda a: ratio(a["aliased"], a["candidates"]) if a.get("candidates")
        else None), "ratio")
    checked = [r for r in records if r.checked]
    m["apd.precision"] = (ratio(sum(r.correct for r in checked),
                                sum(r.checked for r in checked)), "ratio")
    m["scan.probes"] = (
        arg_median("scan.sweep", lambda a: a.get("probes")), "count")
    m["scan.ns_per_probe"] = (ns_per("scan.sweep", "probes"), "ns")
    m["scan.responsive_share"] = (arg_median(
        "scan.sweep",
        lambda a: ratio(a["responsive"], a["rows"]) if a.get("rows")
        else None), "ratio")
    m["netsim.universe_build_ms"] = (
        median([s["universe_ms"] for s in raw["setup"]]), "ms")
    m["other_ms"] = (median([
        root.dur_us / 1000.0 - sum(c.dur_us for c in root.children) / 1000.0
        for root in op_roots]), "ms")
    untraced = [r for r in records if r.kind == "op"]
    m["trace_overhead"] = (
        ratio(traced_day, median([r.ms for r in untraced])), "ratio")
    m["allocs_per_day"] = (median([r.allocs for r in untraced]), "count")
    m["failed_share"] = (ratio(failed, attempted), "ratio")
    return m, shares


def end_to_end_metrics(raw, records):
    ops = [r for r in records if r.kind == "op"]
    op_ms = [r.ms for r in ops]
    tail_pct = TAIL_PERCENTILE
    tail_ms, beyond = percentile(op_ms, tail_pct)
    if beyond < 10:
        log(f"WARNING: only {beyond} samples beyond p{tail_pct:g}")
    setup_s = median([(s["universe_ms"] + s["construct_ms"] + s["history_ms"])
                      / 1000.0 for s in raw["setup"]])
    m = {
        "day_ms.p50": (median(op_ms), "ms"),
        "day_ms.tail": (tail_ms, "ms"),
        # Median of per-op rates: a mean over all ops would let a few
        # ops stretched by host preemption move it.
        "probes_per_s": (median([r.probes * 1000.0 / r.ms for r in ops
                                 if r.ms > 0]), "1/s"),
        "setup_s": (setup_s, "s"),
        # Through setup and the first batch of ops; see daybench.cpp.
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }
    return m, {"samples": len(op_ms), "tail_percentile": tail_pct,
               "tail_samples_beyond": beyond}


# ------------------------------------------------------------- trace

def write_chrome_trace(raw, path):
    events = []
    for name, _parent, start_us, dur_us, allocs, args in raw["spans"]:
        ev_args = dict(args)
        ev_args["allocs"] = allocs
        events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                       "ts": start_us, "dur": dur_us, "args": ev_args})
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": {"workload": raw["workload"], "seed": raw["seed"],
                         "dropped_events": 0}}
    path.write_text(json.dumps(doc))


def validate_trace(path):
    checker = ROOT / "tools" / "check_trace.py"
    if not checker.is_file():
        return "skipped (tools/check_trace.py not in this checkout)"
    proc = subprocess.run([sys.executable, str(checker), str(path)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        return "failed: " + (proc.stderr.strip().splitlines() or ["?"])[-1]
    return "ok"


# -------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite the committed-seed digests")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds 1..600", 2)

    out_dir = build_dir()
    binary = build(out_dir)
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = results / f"{stem}.raw.json"

    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, WORKLOAD_THREADS[args.workload])
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads), "--out", str(raw_path)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"daybench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"daybench exited with {proc.returncode}")
    raw = json.loads(raw_path.read_text())
    records = [Record(row) for row in raw["records"]]

    if args.record_digests:
        if args.trace != 0 or args.seed != COMMITTED_SEED:
            fail(f"--record-digests needs --trace 0 --seed {COMMITTED_SEED}", 2)
        data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        data["seed"] = COMMITTED_SEED
        data[args.workload] = {
            str(r.day): r.digest for r in records
            if r.kind in ("replay", "history")}
        DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        log(f"recorded {len(data[args.workload])} digests in {DIGESTS}")

    committed = None
    if args.seed == COMMITTED_SEED:
        if not DIGESTS.is_file():
            fail(f"{DIGESTS} is missing")
        committed = json.loads(DIGESTS.read_text()).get(args.workload, {})
    attempted, failed, notes = check_ops(raw, records, committed)
    for note in notes:
        log(note)

    op_ms = [r.ms for r in records if r.kind == "op"]
    halves = halves_ratio(op_ms, raw["ops_per_batch"])
    step = abs(halves - 1.0) > HALVES_TOLERANCE
    if step:
        log(f"WARNING: second half of the timed ops ran at {halves:.3f}x the "
            "first half; this run carries a step")
    warmup = raw["warmup"]
    env = {
        "workload": args.workload, "seed": args.seed, "nproc": nproc,
        "threads": threads, "compiler": raw["compiler"],
        "build_type": raw["build_type"], "scale": raw["scale"],
        "protocols": raw["protocols"], "retries": raw["retries"],
        "apd_window": raw["apd_window"], "history_day": raw["history_day"],
        "op_days": [raw["first_day"], raw["last_day"]],
        "commit": source_id(),
        "machine_warmup_s": raw["machine_warmup_s"],
        "op_warmup": {"seconds": round(warmup["seconds"], 3),
                      "ops": warmup["ops"], "steady": warmup["steady"],
                      "window_ms": [round(x, 3) for x in warmup["window_ms"]]},
        "timed_s": round(raw["timed_s"], 3),
        "peak_rss_mb_at_end": round(raw["end_rss_kb"] / 1024.0, 1),
        "halves_ratio": round(halves, 4), "halves_step": step,
        "committed_digests": committed is not None,
        # APD verdicts whose precision sample hit an honest carve-out
        # more specific than the verdict (not counted as wrong).
        "apd_island_verdicts": sum(r.islands for r in records),
    }

    report = {"env": env, "attempted": attempted, "failed": failed,
              "notes": notes}
    correct = failed == 0 and not any(n.startswith("history") for n in notes)
    if args.trace:
        metrics, shares = per_layer_metrics(raw, records, attempted, failed)
        shares["other"] = ratio(metrics["other_ms"][0],
                                median([r.ms for r in records
                                        if r.kind == "traced"]))
        report["layer_share"] = {k: None if v is None else round(v, 4)
                                 for k, v in shares.items()}
        # Non-APD layers the ops call, against apd.fanout_ms.
        report["non_apd_ms"] = sum(metrics[f"{n}_ms"][0] for n in NON_APD_SPANS
                                   if shares[n] is not None)
        trace_path = results / f"{stem}.trace.json"
        write_chrome_trace(raw, trace_path)
        env["trace_file"] = str(trace_path.relative_to(ROOT)) \
            if trace_path.is_relative_to(ROOT) else str(trace_path)
        env["trace_check"] = validate_trace(trace_path)
        if env["trace_check"].startswith("failed"):
            correct = False
    else:
        metrics, stats = end_to_end_metrics(raw, records)
        env.update(stats)
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    (results / f"{stem}.report.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(json.dumps({"env": env}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
