#!/usr/bin/env python3
"""Benchmark of the maxkcov streaming max-k-cover estimator.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the measurement program (perfbench/src) and the `maxkcov` CLI from
source, writes the workload's instance for seed N, checks once that
`maxkcov estimate` prints the same answer as the benchmark, then runs one
repetition per fresh process, closed loop, for S seconds. Every answer is
checked. With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced replay. A full record, host block included, goes to
perfbench/out/. README.md describes the workloads and the metrics.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SUBROUTINES = ("large_common", "large_set", "small_set")
# Def 3.4: the estimate never exceeds OPT, and OPT <= greedy * e/(e-1).
GREEDY_CAP = math.e / (math.e - 1)
PERCENTILES = (50, 90, 95, 99, 99.9)
MIN_BEYOND = 10
MIN_REPS = 3
# Share of --seconds given to untraced repetitions in a --trace 1 run;
# they are the base of obs.trace_overhead_share.
UNTRACED_SHARE = 0.4
# Stop starting repetitions so that the run ends within 180 s of the build.
RUN_LIMIT_S = 160
REP_TIMEOUT_S = 150

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("ingest_edges_per_s", "edges/s"),
    ("answer_s", "s"),
    ("batch_p50_ms", "ms"),
    ("batch_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("space_words", "words"),
    ("est_to_greedy", "ratio"),
)

PER_LAYER = (
    ("stream.parse_s", "s"),
    ("stream.order_s", "s"),
    ("fingerprint.fill_ns_per_edge", "ns"),
    ("universe.map_ns_per_edge", "ns"),
    *(
        (f"{sub}.{name}", unit)
        for sub in SUBROUTINES
        for name, unit in (
            ("observe_ns_per_edge", "ns"),
            ("finalize_s", "s"),
            ("space_words", "words"),
            ("update_share", "share"),
        )
    ),
    ("large_set.evictions", "count"),
    ("large_set.prunes", "count"),
    ("estimate.dispatch_s", "s"),
    ("estimate.select_s", "s"),
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("wire.bytes", "bytes"),
    ("estimate.merge_s", "s"),
    ("estimate.clone_s", "s"),
    ("obs.trace_overhead_share", "share"),
    ("replay.time_coverage", "share"),
    ("replay.state_match", "flag"),
)


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


# ---------------------------------------------------------------- statistics


def supported_percentile(n, candidates=PERCENTILES, beyond=MIN_BEYOND):
    """Highest candidate percentile with at least `beyond` of `n` samples
    above it, or None. Exact arithmetic: the p-th percentile leaves
    n - ceil(p*n/100) samples beyond it."""
    best = None
    for p in candidates:
        if n - math.ceil(Fraction(str(p)) * n / 100) >= beyond:
            best = p
    return best


def quantile(values, p):
    """The p-th percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover (children on parallel threads may overlap, so
    the union of their intervals is taken). `spans` holds
    [name, start_ns, end_ns, parent_index_or_-1] rows."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


# --------------------------------------------------------------------- checks


def check_rep(rep, ref, first):
    """Names of the answer checks repetition `rep` fails. `ref` holds the
    untimed references of the instance, `first` the run's first repetition."""
    failed = []
    est = rep["estimate"]
    if est is None or not math.isfinite(est) or est < 1:
        failed.append("estimate_finite_and_at_least_1")
    elif est > ref["greedy"] * GREEDY_CAP:
        failed.append("estimate_at_most_greedy_e_over_e_minus_1")
    if (rep["estimate_bits"], rep["space_words"]) != (first["estimate_bits"], first["space_words"]):
        failed.append("same_seed_bit_identical")
    if "serial_estimate_bits" in ref and rep["estimate_bits"] != ref["serial_estimate_bits"]:
        failed.append("merged_equals_serial")
    return failed


def failures_of(reps, ref, cli_error):
    """One entry per failed run: each repetition failing a check, and the
    CLI agreement run when `cli_error` is set."""
    failures = [{"rep": "cli", "checks": [cli_error]}] if cli_error else []
    for i, rep in enumerate(reps):
        failed = check_rep(rep, ref, reps[0])
        if failed:
            failures.append({"rep": i, "checks": failed})
    return failures


def cli_mismatch(stdout, rep):
    """Why `maxkcov estimate` output disagrees with a repetition, or None."""
    est = re.search(r"^estimate\s+=\s+(\S+)$", stdout, re.M)
    words = re.search(r"^space \(words\)\s+=\s+(\d+)$", stdout, re.M)
    if not est or not words:
        return "no estimate / space (words) lines in the CLI output"
    ours = (f"{rep['estimate']:.1f}", int(rep["space_words"]))
    theirs = (est.group(1), int(words.group(1)))
    return None if ours == theirs else f"CLI printed {theirs}, the benchmark measured {ours}"


# ------------------------------------------------------------------- metrics


def end_to_end(reps, ref):
    batch_ms = [ns / 1e6 for r in reps for ns in r["batch_ns"]]
    p = supported_percentile(len(batch_ms))
    if p is None or p < 95:
        raise BenchError(f"{len(batch_ms)} batch samples do not support a p95")
    med = lambda key: statistics.median(r[key] for r in reps)
    return {
        "run_s": med("run_s"),
        "setup_s": statistics.median(statistics.median(r["setup_s"]) for r in reps),
        "ingest_edges_per_s": statistics.median(r["edges"] / r["ingest_s"] for r in reps),
        "answer_s": med("answer_s"),
        "batch_p50_ms": quantile(batch_ms, 50),
        "batch_p95_ms": quantile(batch_ms, 95),
        "peak_rss_mb": med("peak_rss_kb") / 1024,
        "space_words": med("space_words"),
        "est_to_greedy": med("estimate") / ref["greedy"],
    }, len(batch_ms)


def traced_phases(spans):
    """Run, ingest and answer time (s) of a traced repetition without the
    replay working beside the estimator: the replay's set-up is taken out,
    and ingest becomes its slowest feeding thread's time without its
    replay chunks."""
    first = {}
    for i, (name, *_) in enumerate(spans):
        first.setdefault(name, i)
    dur = lambda i: spans[i][2] - spans[i][1]
    feeders = defaultdict(int)
    for name, start, end, parent in spans:
        if name == "replay.chunk":
            feeders[parent] += end - start
    wall = dur(first["estimate.ingest"])
    ingest = max((dur(g) - chunks for g, chunks in feeders.items()), default=wall)
    setup = sum(end - start for name, start, end, _ in spans if name in ("replay.new", "replay.clone"))
    answer = sum(
        end - start
        for name, start, end, _ in spans
        if name in ("wire.encode", "wire.decode", "estimate.merge", "estimate.finalize")
    )
    return {
        "run": (dur(first["rep"]) - setup - wall + ingest) / 1e9,
        "ingest": ingest / 1e9,
        "answer": answer / 1e9,
    }


def layer_metrics(spans, rep):
    """Per-layer metrics of one traced repetition from its spans."""
    self_ns, dur_ns = defaultdict(int), defaultdict(int)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        self_ns[name] += own
        dur_ns[name] += end - start
    edges = rep["edges"]
    layer_ingest = sum(
        self_ns[n] for n in ("fingerprint.fill_block", "universe.mix_batch", "universe.reduce")
    ) + sum(self_ns[f"{s}.observe_fp_batch"] for s in SUBROUTINES)
    layer_finalize = sum(self_ns[f"{s}.finalize"] for s in SUBROUTINES)
    est_ingest = dur_ns["estimate.observe"] + dur_ns["estimate.observe_batch"]
    est_finalize = dur_ns["estimate.finalize"]
    m = {
        "stream.parse_s": dur_ns["stream.parse"] / 1e9,
        "stream.order_s": dur_ns["stream.order"] / 1e9,
        "fingerprint.fill_ns_per_edge": self_ns["fingerprint.fill_block"] / edges,
        "universe.map_ns_per_edge": (self_ns["universe.mix_batch"] + self_ns["universe.reduce"])
        / edges,
    }
    for s in SUBROUTINES:
        m[f"{s}.observe_ns_per_edge"] = self_ns[f"{s}.observe_fp_batch"] / edges
        m[f"{s}.finalize_s"] = self_ns[f"{s}.finalize"] / 1e9
    m.update({k: v for k, v in rep["layers"].items() if k != "state_match"})
    m.update(
        {
            "estimate.dispatch_s": (est_ingest - layer_ingest) / 1e9,
            "estimate.select_s": (est_finalize - layer_finalize) / 1e9,
            "wire.encode_s": dur_ns["wire.encode"] / 1e9,
            "wire.decode_s": dur_ns["wire.decode"] / 1e9,
            "wire.bytes": rep["wire_bytes"],
            "estimate.merge_s": dur_ns["estimate.merge"] / 1e9,
            "estimate.clone_s": dur_ns["estimate.clone"] / 1e9,
            "replay.time_coverage": (layer_ingest + layer_finalize) / (est_ingest + est_finalize),
            "replay.state_match": 1.0 if rep["layers"]["state_match"] else 0.0,
            "traced": traced_phases(spans),
        }
    )
    return m


def per_layer(traced, untraced_run_s):
    """Median per-layer metrics over the traced repetitions, and the
    workload's profile: the shares of the traced run_s spent ingesting,
    answering, and in wire plus merge."""
    per_rep = [layer_metrics(spans, rep) for rep, spans in traced]
    traced_run_s = statistics.median(m["traced"]["run"] for m in per_rep)
    out = {}
    for name, _ in PER_LAYER:
        if name == "obs.trace_overhead_share":
            out[name] = traced_run_s / untraced_run_s - 1
        elif name == "replay.state_match":
            out[name] = min(m[name] for m in per_rep)
        else:
            out[name] = statistics.median(m[name] for m in per_rep)
    share = lambda f: statistics.median(f(m) / m["traced"]["run"] for m in per_rep)
    profile = {
        "ingest_share": share(lambda m: m["traced"]["ingest"]),
        "answer_share": share(lambda m: m["traced"]["answer"]),
        "wire_merge_share": share(
            lambda m: m["wire.encode_s"] + m["wire.decode_s"] + m["estimate.merge_s"]
        ),
    }
    return out, profile


# ---------------------------------------------------------------- processes


def run(cmd, timeout, **kw):
    """Run a command to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, timeout=timeout, capture_output=True, text=True, **kw)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{cmd[0]} timed out after {timeout} s") from e


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for args in (
        ["--manifest-path", str(HERE / "Cargo.toml")],
        ["--manifest-path", str(ROOT / "Cargo.toml"), "--bin", "maxkcov"],
    ):
        res = run(["cargo", "build", "--offline", "--release", *args], 850, cwd=ROOT, env=env)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            raise BenchError(f"cargo build {' '.join(args)} failed")
    return target / "release" / "kcov-perfbench", target / "release" / "maxkcov"


def json_line(res, what):
    if res.returncode != 0:
        raise BenchError(f"{what} exited {res.returncode}: {res.stderr.strip()}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def host_block(seed, ref, workload):
    def first_line(cmd):
        try:
            res = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
            return res.stdout.strip().splitlines()[0] if res.returncode == 0 else "unknown"
        except (OSError, IndexError, subprocess.TimeoutExpired):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": first_line(["rustc", "--version"]),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
        "seed": seed,
        "workload": workload,
        "edges": ref["edges"],
        "lanes": ref["lanes"],
    }


# ---------------------------------------------------------------------- main


def measure(args):
    bench, cli = build()
    t_start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    w = args.workload
    instance = OUT / f"{w}.txt"
    ref = json_line(
        run([bench, "gen", "--workload", w, "--seed", str(args.seed), "--out", instance], 170),
        "gen",
    )
    host = host_block(args.seed, ref, w)

    def rep(spans=None):
        cmd = [bench, "rep", "--workload", w, "--input", instance]
        if spans:
            cmd += ["--spans", spans]
        out = json_line(run(cmd, REP_TIMEOUT_S), "rep")
        if out["estimate"] is None:  # not finite; fails the answer checks
            out["estimate"] = 0.0
        if spans:
            with open(spans) as f:
                return out, json.load(f)
        return out

    cli_out = run([cli, "estimate", "--input", instance, *ref["cli_flags"]], 170)

    # Closed loop over fresh processes: untraced repetitions (all of
    # --seconds, or UNTRACED_SHARE of it with --trace 1), then traced ones.
    reps, traced, last = [], [], 0.0
    t0 = time.monotonic()

    def go_on(done, until):
        now = time.monotonic()
        return now + last < t_start + RUN_LIMIT_S and (not done or now < until)

    def untraced_done():
        if args.trace:
            return len(reps) >= 2
        samples = sum(len(r["batch_ns"]) for r in reps)
        return len(reps) >= MIN_REPS and (supported_percentile(samples) or 0) >= 95

    while not reps or go_on(untraced_done(), t0 + args.seconds * (UNTRACED_SHARE if args.trace else 1)):
        t = time.monotonic()
        reps.append(rep())
        last = time.monotonic() - t
    while args.trace and (not traced or go_on(len(traced) >= 2, t0 + args.seconds)):
        t = time.monotonic()
        traced.append(rep(str(OUT / f"spans-{w}-{len(traced)}.json")))
        last = time.monotonic() - t

    everything = reps + [r for r, _ in traced]
    cli_error = (
        f"maxkcov exited {cli_out.returncode}"
        if cli_out.returncode
        else cli_mismatch(cli_out.stdout, everything[0])
    )
    failures = failures_of(everything, ref, cli_error)
    attempted = len(everything) + 1  # the CLI agreement run counts as one
    failed = len(failures)

    profile, samples = None, None
    if args.trace:
        metrics, profile = per_layer(traced, statistics.median(r["run_s"] for r in reps))
        units = dict(PER_LAYER)
    else:
        metrics, samples = end_to_end(reps, ref)
        units = dict(END_TO_END)

    record = {
        "host": host,
        "workload": w,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference": ref,
        "repetitions": len(everything),
        "batch_samples": samples,
        "profile": profile,
        "failures": failures,
        "metrics": metrics,
        "reps": [{k: v for k, v in r.items() if k != "batch_ns"} for r in everything],
    }
    with open(OUT / f"result-{w}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)

    print(f"# host: {json.dumps(host)}")
    print(f"# {w}: {len(everything)} repetitions in {time.monotonic() - t0:.1f} s, seed {args.seed}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:>18.6g} {units[name]}")
    if samples is not None:
        print(f"{'batch_samples':34s} {samples:>18d} count")
    if profile is not None:
        print("# profile of the traced run_s: " + ", ".join(f"{k} {v:.3f}" for k, v in profile.items()))
    print(f"{'failed_share':34s} {failed / attempted:>18.6g} share ({failed} of {attempted})")
    for f_ in failures:
        print(f"# failed {f_['rep']}: {', '.join(f_['checks'])}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="uniform-ingest, rmat-finalize or zipf-distributed")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        measure(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
