//! `maxkcov` — command-line front end.
//!
//! ```text
//! maxkcov gen      --kind uniform|zipf|planted|common|few-large|many-small \
//!                  --n N --m M [--k K] [--seed S] --out FILE
//! maxkcov stats    --input FILE
//! maxkcov greedy   --input FILE --k K
//! maxkcov exact    --input FILE --k K
//! maxkcov estimate --input FILE --k K --alpha A [--seed S] [--order ORDER] \
//!                  [--threads T] [--batch B] [--shards S]
//! maxkcov report   --input FILE --k K --alpha A [--seed S] [--order ORDER] \
//!                  [--threads T] [--batch B] [--shards S]
//! ```
//!
//! `ORDER` is one of `set`, `element`, `roundrobin`, `shuffle:SEED`
//! (default `shuffle:0`). Instances use the plain-text format of
//! `kcov_stream::io`. `--batch B` routes ingestion through the batched
//! engine in chunks of `B` edges and `--threads T` shards the guess ×
//! repetition lanes across `T` OS threads; both are bit-identical to
//! the default per-edge serial pass. `--shards S` instead partitions
//! the *stream* across `S` full estimator replicas (scoped threads)
//! merged at finalize — estimates are identical to the serial pass up
//! to the merge contract of DESIGN.md §8.
//!
//! Observability: `--metrics` appends a human summary (counters,
//! gauges, per-subroutine estimates) after the normal output, and
//! `--trace FILE` writes the full structured NDJSON event log. With
//! either enabled, `--heartbeat N` additionally captures a per-lane
//! fill snapshot every `N` (shard-local) edges — cadenced by edge
//! count only, never wall-clock, so estimates stay bit-identical
//! (DESIGN.md §10). All of these only *add* output — estimates and the
//! default output lines are byte-identical with or without them.
//! Unknown flags are rejected per subcommand rather than silently
//! ignored; every flag is registered exactly once in [`FLAG_SPECS`].
//!
//! `maxkcov trace-summarize FILE` renders an NDJSON trace written by
//! `--trace`: aggregate phase timings, heartbeat fill (and cumulative
//! lane-ns) trajectories, histogram percentiles, and the ledger's ns
//! totals per stage, and re-checks the trace's accounting invariants
//! (phase event nanos vs `time_ns.*` counters, subroutine space vs the
//! summary total, heartbeat monotonicity vs the final sketch totals,
//! and the ledger invariants `prof` checks), failing on violation.
//!
//! `maxkcov prof` renders the attribution ledger (DESIGN.md §13): one
//! tree whose leaves carry words, updates, touched words and ns, as a
//! report ranked by words (or by ns with `--time`) — either from a
//! `--trace` file's `"ledger"` events (`maxkcov prof TRACE`) or from a
//! live run (`maxkcov prof --input FILE --k K --alpha A …`). Either way
//! it re-checks the ledger invariants (parent sums of every column, the
//! word total against the estimator's space, the per-subroutine match,
//! ns conservation against the measured wall clock) and exits non-zero
//! on a violation. `--time --folded` switches the output to Brendan
//! Gregg folded-stacks text of the ns column (`frame;frame;... ns`, one
//! line per leaf) ready for `flamegraph.pl` or `inferno-flamegraph`.
//!
//! Distributed ingestion (DESIGN.md §11): `maxkcov worker` ingests one
//! contiguous shard of the stream (`--shards N --shard I`) and writes
//! its full serialized estimator replica (versioned wire format) to
//! `--out FILE`; `maxkcov merge-from FILE...` decodes the replicas,
//! folds them through the commutative merge, and finalizes — emitting
//! the same estimate, metrics, and trace events as a single-process
//! `--shards N` run (byte-identical modulo wall-clock `ns` fields).
//! Workers checkpoint with `--snapshot FILE --snapshot-every E` and
//! recover with `--resume FILE` (resuming at the recorded edge offset,
//! no replay of ingested edges); `--stop-after E` simulates a crash.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

use kcov_baselines::{greedy_max_cover, max_cover_exact};
use kcov_core::{crosses_beat, EstimatorConfig, MaxCoverEstimator, MaxCoverReporter, ParamMode};
use kcov_obs::json::Json;
use kcov_obs::{render_folded, render_ledger_report, Histogram, LedgerRow, Rank, Recorder};
use kcov_sketch::{SpaceUsage, WireEncode};
use kcov_stream::gen;
use kcov_stream::{
    coverage_of, edge_stream, read_set_system, write_set_system, ArrivalOrder, CoverageStats,
    SetSystem, MAX_IDS,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    match run(&args, &mut out).and_then(|()| out.flush().map_err(write_err)) {
        // A reader that stops early (`| head`) is not an error.
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) if msg == STDOUT_CLOSED => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The error a write to a closed stdout maps to (see [`write_err`]).
const STDOUT_CLOSED: &str = "stdout closed";

/// Map a failed stdout write into the CLI's error path: a closed reader
/// becomes [`STDOUT_CLOSED`], which `main` treats as a clean exit.
fn write_err(e: io::Error) -> String {
    if e.kind() == io::ErrorKind::BrokenPipe {
        STDOUT_CLOSED.to_string()
    } else {
        format!("write stdout: {e}")
    }
}

/// `writeln!` to the CLI's one stdout writer, returning early through
/// [`write_err`] when the write fails.
macro_rules! outln {
    ($out:expr) => {
        writeln!($out).map_err(write_err)?
    };
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(write_err)?
    };
}

/// `write!` counterpart of [`outln!`].
macro_rules! out {
    ($out:expr, $($arg:tt)*) => {
        write!($out, $($arg)*).map_err(write_err)?
    };
}

const USAGE: &str = "usage:
  maxkcov gen      --kind KIND --n N --m M [--k K] [--seed S] --out FILE
  maxkcov stats    --input FILE
  maxkcov greedy   --input FILE --k K
  maxkcov exact    --input FILE --k K
  maxkcov estimate --input FILE --k K --alpha A [--seed S] [--order ORDER] [--mode paper|practical]
                   [--threads T] [--batch B] [--shards S] [--metrics] [--trace FILE] [--heartbeat N]
  maxkcov report   --input FILE --k K --alpha A [--seed S] [--order ORDER] [--mode paper|practical]
                   [--threads T] [--batch B] [--shards S] [--metrics] [--trace FILE] [--heartbeat N]
  maxkcov twopass  --input FILE --k K --alpha A [--seed S] [--order ORDER] [--threads T] [--batch B]
                   [--shards S] [--metrics] [--trace FILE] [--heartbeat N]
  maxkcov setcover --input FILE [--fraction F]
  maxkcov budget   --input FILE --k K --words W [--seed S] [--order ORDER] [--threads T] [--batch B]
                   [--shards S] [--metrics] [--trace FILE] [--heartbeat N]
  maxkcov worker   --input FILE --k K --alpha A --shards N --shard I --out FILE [--seed S]
                   [--order ORDER] [--mode paper|practical] [--threads T] [--batch B]
                   [--snapshot FILE --snapshot-every E] [--resume FILE] [--stop-after E]
                   [--metrics] [--trace FILE] [--heartbeat N]
  maxkcov merge-from FILE... [--metrics] [--trace FILE]
  maxkcov trace-summarize FILE
  maxkcov prof     TRACE [--top N] [--time [--folded]]
  maxkcov prof     --input FILE --k K --alpha A [--seed S] [--order ORDER] [--mode paper|practical]
                   [--threads T] [--batch B] [--shards S] [--top N] [--time [--folded]]
KIND: uniform | zipf | planted | common | few-large | many-small
ORDER: set | element | roundrobin | shuffle:SEED (default shuffle:0)
--batch B ingests B edges per observe_batch call (default: per-edge observe);
--threads T shards lanes across T threads. Results are bit-identical either way.
--shards S partitions the stream across S estimator replicas merged at
finalize; estimates are identical to the serial pass (DESIGN.md sec. 8).
--metrics prints a counters/gauges/subroutine summary after the normal output;
--trace FILE writes the structured NDJSON event log; --heartbeat N (with either)
snapshots per-lane fills every N edges into the event log. None changes estimates.
trace-summarize renders phase timings, heartbeat trajectories, and histogram
percentiles from a --trace file and re-checks its accounting invariants.
worker ingests shard I of N (contiguous split of the arrival order) and writes
its serialized replica to --out; merge-from folds replica files through the
commutative merge and finalizes, matching a single-process --shards N run.
--snapshot FILE --snapshot-every E checkpoints the worker every E shard edges;
--resume FILE restarts from a checkpoint (no replay); --stop-after E simulates
a crash after E edges (exits non-zero, periodic snapshots left for recovery).
prof renders the attribution ledger (words / updates / upd-per-word / ns per
leaf, DESIGN.md sec. 13) from a --trace file's ledger events or from a live run,
re-checking its invariants (parent sums of every column, summary total,
per-subroutine match, ns conservation); leaves are ranked by words, or by ns
with --time. --top N limits the report to the N hottest leaves (default 20,
0 = all); --time --folded emits Brendan Gregg folded-stacks text of the ns
column (one 'path ns' line per leaf, frames joined by ';') ready for
flamegraph.pl / inferno-flamegraph.";

/// Whether a flag takes a value or is a bare boolean.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FlagKind {
    Value,
    Bool,
}

/// One CLI flag: registered in [`FLAG_SPECS`] exactly once, with the
/// subcommands that accept it. Adding a flag means adding one row here
/// (plus the USAGE string) — nothing else to keep in sync.
struct FlagSpec {
    name: &'static str,
    kind: FlagKind,
    commands: &'static [&'static str],
}

/// The streaming subcommands: everything that ingests an edge stream
/// through an estimator and therefore shares the ingestion/observability
/// flag set.
const STREAM_CMDS: &[&str] = &["estimate", "report", "twopass", "budget", "worker"];

/// Subcommands that can *run* an ingestion pass: the streaming
/// subcommands plus `prof`'s live mode (which profiles the ledger
/// instead of reporting estimates, but configures ingestion the same
/// way).
const RUN_CMDS: &[&str] = &["estimate", "report", "twopass", "budget", "worker", "prof"];

/// Subcommands with an observability surface. `merge-from` never
/// ingests (no `--heartbeat`) but emits the merged trace and metrics.
const OBS_CMDS: &[&str] = &["estimate", "report", "twopass", "budget", "worker", "merge-from"];

const FLAG_SPECS: &[FlagSpec] = &[
    FlagSpec { name: "kind", kind: FlagKind::Value, commands: &["gen"] },
    FlagSpec { name: "n", kind: FlagKind::Value, commands: &["gen"] },
    FlagSpec { name: "m", kind: FlagKind::Value, commands: &["gen"] },
    FlagSpec { name: "out", kind: FlagKind::Value, commands: &["gen", "worker"] },
    FlagSpec {
        name: "k",
        kind: FlagKind::Value,
        commands: &[
            "gen", "greedy", "exact", "estimate", "report", "twopass", "budget", "worker", "prof",
        ],
    },
    FlagSpec {
        name: "seed",
        kind: FlagKind::Value,
        commands: &["gen", "estimate", "report", "twopass", "budget", "worker", "prof"],
    },
    FlagSpec {
        name: "input",
        kind: FlagKind::Value,
        commands: &[
            "stats", "greedy", "exact", "setcover", "estimate", "report", "twopass", "budget",
            "worker", "prof",
        ],
    },
    FlagSpec {
        name: "alpha",
        kind: FlagKind::Value,
        commands: &["estimate", "report", "twopass", "worker", "prof"],
    },
    FlagSpec { name: "words", kind: FlagKind::Value, commands: &["budget"] },
    FlagSpec { name: "fraction", kind: FlagKind::Value, commands: &["setcover"] },
    FlagSpec { name: "top", kind: FlagKind::Value, commands: &["prof"] },
    FlagSpec { name: "order", kind: FlagKind::Value, commands: RUN_CMDS },
    FlagSpec { name: "mode", kind: FlagKind::Value, commands: RUN_CMDS },
    FlagSpec { name: "threads", kind: FlagKind::Value, commands: RUN_CMDS },
    FlagSpec { name: "batch", kind: FlagKind::Value, commands: RUN_CMDS },
    FlagSpec { name: "shards", kind: FlagKind::Value, commands: RUN_CMDS },
    FlagSpec { name: "shard", kind: FlagKind::Value, commands: &["worker"] },
    FlagSpec { name: "snapshot", kind: FlagKind::Value, commands: &["worker"] },
    FlagSpec { name: "snapshot-every", kind: FlagKind::Value, commands: &["worker"] },
    FlagSpec { name: "resume", kind: FlagKind::Value, commands: &["worker"] },
    FlagSpec { name: "stop-after", kind: FlagKind::Value, commands: &["worker"] },
    FlagSpec { name: "trace", kind: FlagKind::Value, commands: OBS_CMDS },
    FlagSpec { name: "heartbeat", kind: FlagKind::Value, commands: STREAM_CMDS },
    FlagSpec { name: "metrics", kind: FlagKind::Bool, commands: OBS_CMDS },
    FlagSpec { name: "time", kind: FlagKind::Bool, commands: &["prof"] },
    FlagSpec { name: "folded", kind: FlagKind::Bool, commands: &["prof"] },
];

/// Look up a flag for a subcommand in [`FLAG_SPECS`].
fn flag_spec(cmd: &str, key: &str) -> Option<&'static FlagSpec> {
    FLAG_SPECS
        .iter()
        .find(|s| s.name == key && s.commands.contains(&cmd))
}

/// Parse `--key value` (and bare boolean `--key`) flags after the
/// subcommand, rejecting flags the subcommand does not accept.
fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{a}'"))?;
        if flags.contains_key(key) {
            return Err(format!("duplicate flag --{key}"));
        }
        let spec = flag_spec(cmd, key)
            .ok_or_else(|| format!("unknown flag --{key} for subcommand '{cmd}'"))?;
        match spec.kind {
            FlagKind::Bool => {
                flags.insert(key.to_string(), "true".to_string());
            }
            FlagKind::Value => {
                let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                flags.insert(key.to_string(), val.clone());
            }
        }
    }
    Ok(flags)
}

/// `--trace FILE` / `--metrics` / `--heartbeat N` — the CLI
/// observability surface.
struct ObsOpts {
    trace: Option<String>,
    metrics: bool,
    heartbeat: Option<u64>,
}

impl ObsOpts {
    fn parse(flags: &HashMap<String, String>) -> Result<ObsOpts, String> {
        let opts = ObsOpts {
            trace: flags.get("trace").cloned(),
            metrics: flags.contains_key("metrics"),
            heartbeat: match flags.get("heartbeat") {
                None => None,
                Some(s) => {
                    let every: u64 = parse_num(s, "heartbeat")?;
                    if every == 0 {
                        return Err("--heartbeat must be >= 1".into());
                    }
                    Some(every)
                }
            },
        };
        if opts.heartbeat.is_some() && opts.trace.is_none() && !opts.metrics {
            return Err("--heartbeat requires --trace or --metrics (heartbeats go to the event log)".into());
        }
        Ok(opts)
    }

    /// A live recorder only when some output was requested, so the
    /// default path keeps the zero-cost disabled handle.
    fn recorder(&self) -> Recorder {
        if self.trace.is_some() || self.metrics {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// Wire the recorder and heartbeat cadence into the estimator
    /// config, returning the recorder handle for spans/emission.
    fn configure(&self, config: &mut EstimatorConfig) -> Recorder {
        let rec = self.recorder();
        config.recorder = rec.clone();
        config.heartbeat_every = self.heartbeat;
        rec
    }

    /// Append metrics/trace output *after* the normal result lines
    /// (default stdout stays byte-identical when neither is requested).
    fn emit(&self, rec: &Recorder, out: &mut dyn Write) -> Result<(), String> {
        if self.metrics {
            out!(out, "{}", rec.summary_table());
            let subs = rec.events_of("subroutine");
            if !subs.is_empty() {
                outln!(out, "subroutine                                estimate      space");
                for ev in &subs {
                    let lane = ev.u64_field("lane").unwrap_or(0);
                    let name = ev.str_field("name").unwrap_or("?");
                    let est = ev.f64_field("estimate").unwrap_or(f64::NAN);
                    let words = ev.u64_field("space_words").unwrap_or(0);
                    let est = if est.is_finite() {
                        format!("{est:.1}")
                    } else {
                        "-".to_string()
                    };
                    outln!(out, "  lane{lane:<3} {name:<30}  {est:>10}  {words:>9}");
                }
            }
        }
        if let Some(path) = &self.trace {
            let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            rec.write_ndjson(BufWriter::new(file))
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        Ok(())
    }
}

fn req<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: '{s}'"))
}

/// `--k K`: how many sets to pick, at least 1.
fn parse_k(s: &str) -> Result<usize, String> {
    match parse_num(s, "k")? {
        0 => Err("--k must be >= 1".into()),
        k => Ok(k),
    }
}

/// `--alpha A`: the approximation factor, a finite number >= 1.
fn parse_alpha(s: &str) -> Result<f64, String> {
    let alpha: f64 = parse_num(s, "alpha")?;
    if alpha.is_finite() && alpha >= 1.0 {
        Ok(alpha)
    } else {
        Err(format!("--alpha must be a finite number >= 1, got '{s}'"))
    }
}

fn load(flags: &HashMap<String, String>) -> Result<SetSystem, String> {
    let path = req(flags, "input")?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    read_set_system(BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))
}

fn parse_order(flags: &HashMap<String, String>) -> Result<ArrivalOrder, String> {
    match flags.get("order").map(String::as_str) {
        None => Ok(ArrivalOrder::Shuffled(0)),
        Some("set") => Ok(ArrivalOrder::SetContiguous),
        Some("element") => Ok(ArrivalOrder::ElementContiguous),
        Some("roundrobin") => Ok(ArrivalOrder::RoundRobin),
        Some(s) if s.starts_with("shuffle:") => {
            Ok(ArrivalOrder::Shuffled(parse_num(&s[8..], "shuffle seed")?))
        }
        Some(s) => Err(format!("unknown order '{s}'")),
    }
}

fn parse_config(flags: &HashMap<String, String>) -> Result<EstimatorConfig, String> {
    let seed = match flags.get("seed") {
        Some(s) => parse_num(s, "seed")?,
        None => 0,
    };
    let mut config = EstimatorConfig::practical(seed);
    match flags.get("mode").map(String::as_str) {
        None | Some("practical") => {}
        Some("paper") => config.mode = ParamMode::Paper,
        Some(s) => return Err(format!("unknown mode '{s}'")),
    }
    if let Some(t) = flags.get("threads") {
        config.threads = parse_num(t, "threads")?;
    }
    if let Some(s) = flags.get("shards") {
        let shards: usize = parse_num(s, "shards")?;
        if shards == 0 {
            return Err("--shards must be >= 1".into());
        }
        config.shards = shards;
    }
    Ok(config)
}

/// `--batch B` chunk size; `None` keeps the per-edge `observe` path.
/// Edges per batch when a sharded run, a `worker` or `prof --input`
/// gets no `--batch`.
const DEFAULT_BATCH: usize = 1024;

/// The batch rule every stream subcommand hands
/// [`MaxCoverEstimator::ingest`]: `--batch` as given; without it, per
/// edge on one shard and [`DEFAULT_BATCH`] when sharded.
fn stream_batch(
    flags: &HashMap<String, String>,
    config: &EstimatorConfig,
) -> Result<Option<usize>, String> {
    Ok(parse_batch(flags)?.or((config.shards > 1).then_some(DEFAULT_BATCH)))
}

fn parse_batch(flags: &HashMap<String, String>) -> Result<Option<usize>, String> {
    match flags.get("batch") {
        None => Ok(None),
        Some(s) => {
            let b: usize = parse_num(s, "batch")?;
            if b == 0 {
                return Err("--batch must be >= 1".into());
            }
            Ok(Some(b))
        }
    }
}


fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("no subcommand".into());
    };
    if cmd == "trace-summarize" {
        // Takes a positional FILE argument instead of --flags.
        let [path] = rest else {
            return Err("trace-summarize takes exactly one argument: the trace file".into());
        };
        return cmd_trace_summarize(path, out);
    }
    if cmd == "merge-from" {
        // Takes positional replica FILEs plus --flags.
        let (files, flags) = split_positional(cmd, rest)?;
        return cmd_merge_from(&files, &flags, out);
    }
    if cmd == "prof" {
        // Takes either a positional TRACE file or --input for a live run.
        let (files, flags) = split_positional(cmd, rest)?;
        return cmd_prof(&files, &flags, out);
    }
    if !matches!(
        cmd.as_str(),
        "gen" | "stats" | "greedy" | "exact" | "estimate" | "report" | "twopass" | "setcover"
            | "budget" | "worker"
    ) {
        return Err(format!("unknown subcommand '{cmd}'"));
    }
    let flags = parse_flags(cmd, rest)?;
    match cmd.as_str() {
        "gen" => cmd_gen(&flags, out),
        "stats" => cmd_stats(&flags, out),
        "greedy" => cmd_greedy(&flags, out),
        "exact" => cmd_exact(&flags, out),
        "estimate" => cmd_estimate(&flags, out),
        "report" => cmd_report(&flags, out),
        "twopass" => cmd_twopass(&flags, out),
        "setcover" => cmd_setcover(&flags, out),
        "budget" => cmd_budget(&flags, out),
        "worker" => cmd_worker(&flags, out),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

/// Split `args` into positional operands and `--flag` arguments, then
/// parse the flags for `cmd`. Value-taking flags consume the following
/// argument, so positionals and flags can be freely interleaved.
fn split_positional(
    cmd: &str,
    args: &[String],
) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flag_args = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            flag_args.push(a.clone());
            if let Some(spec) = flag_spec(cmd, key) {
                if spec.kind == FlagKind::Value {
                    if let Some(v) = it.next() {
                        flag_args.push(v.clone());
                    }
                }
            }
        } else {
            positional.push(a.clone());
        }
    }
    let flags = parse_flags(cmd, &flag_args)?;
    Ok((positional, flags))
}

fn cmd_gen(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let kind = req(flags, "kind")?;
    let n: usize = parse_num(req(flags, "n")?, "n")?;
    let m: usize = parse_num(req(flags, "m")?, "m")?;
    let seed: u64 = match flags.get("seed") {
        Some(s) => parse_num(s, "seed")?,
        None => 0,
    };
    let k = match flags.get("k") {
        Some(s) => parse_k(s)?,
        None => (m / 20).max(1),
    };
    // Shapes the generators would assert on are usage errors here.
    if n < 1 || m < 1 {
        return Err("gen needs --n >= 1 and --m >= 1".into());
    }
    if n as u64 > MAX_IDS || m as u64 > MAX_IDS {
        return Err("gen needs --n and --m <= 2^32: ids must fit u32".into());
    }
    let system = match kind {
        "uniform" => gen::uniform_fixed_size(n, m, (n / 50).max(2).min(n), seed),
        "zipf" => gen::zipf_set_sizes(n, m, (n / 5).max(2).min(n), 1.05, seed),
        "planted" => {
            if k > m || k > n {
                return Err(format!("planted needs --k <= --m and --k <= --n (k = {k})"));
            }
            gen::planted_cover(n, m, k, 0.8, ((n / k) / 4).max(1), seed).system
        }
        "common" => {
            if n < 8 || m < 4 {
                return Err("common needs --n >= 8 and --m >= 4".into());
            }
            gen::common_heavy(n, m, seed)
        }
        "few-large" => {
            let (large, size) = (3.min(m.saturating_sub(1)), (n / 5).max(1));
            if large < 1 {
                return Err("few-large needs --m >= 2".into());
            }
            if large * size > n * 3 / 4 {
                return Err(format!("few-large needs --n to hold {large} sets of {size} in 3/4 of it"));
            }
            gen::few_large(n, m, large, size, seed)
        }
        "many-small" => gen::many_small(n, m, k.min(m), 0.6, seed),
        other => return Err(format!("unknown kind '{other}'")),
    };
    let path = req(flags, "out")?;
    let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    write_set_system(&system, BufWriter::new(file)).map_err(|e| format!("write: {e}"))?;
    outln!(
        out,
        "wrote {path}: n={} m={} edges={}",
        system.num_elements(),
        system.num_sets(),
        system.total_edges()
    );
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let system = load(flags)?;
    let st = CoverageStats::of(&system);
    outln!(out, "n              = {}", st.n);
    outln!(out, "m              = {}", st.m);
    outln!(out, "edges          = {}", st.total_edges);
    outln!(out, "max set size   = {}", st.max_set_size);
    outln!(out, "max frequency  = {}", st.max_frequency);
    outln!(out, "covered elems  = {}", st.covered_elements);
    Ok(())
}

fn cmd_greedy(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let system = load(flags)?;
    let k = parse_k(req(flags, "k")?)?;
    let r = greedy_max_cover(&system, k);
    outln!(out, "greedy coverage = {}", r.coverage);
    outln!(out, "sets = {:?}", r.chosen);
    Ok(())
}

fn cmd_exact(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let system = load(flags)?;
    let k = parse_k(req(flags, "k")?)?;
    if system.num_sets() > 64 {
        eprintln!(
            "warning: exact search on m = {} sets may take very long",
            system.num_sets()
        );
    }
    let (chosen, cov) = max_cover_exact(&system, k);
    outln!(out, "exact optimum = {cov}");
    outln!(out, "sets = {chosen:?}");
    Ok(())
}

fn cmd_estimate(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let system = load(flags)?;
    let k = parse_k(req(flags, "k")?)?;
    let alpha = parse_alpha(req(flags, "alpha")?)?;
    let order = parse_order(flags)?;
    let mut config = parse_config(flags)?;
    let obs = ObsOpts::parse(flags)?;
    let rec = obs.configure(&mut config);
    let batch = stream_batch(flags, &config)?;
    let edges = edge_stream(&system, order);
    let mut est = MaxCoverEstimator::new(system.num_elements(), system.num_sets(), k, alpha, &config);
    let span = rec.span("ingest");
    est.ingest(&edges, config.shards, batch);
    span.finish();
    let res = est.finalize();
    outln!(out, "estimate      = {:.1}", res.estimate);
    outln!(out, "winning z     = {}", res.winning_z);
    outln!(out, "winner        = {:?}", res.winner);
    outln!(out, "trivial       = {}", res.trivial);
    outln!(out, "space (words) = {}", est.space_words());
    outln!(out, "stream edges  = {}", edges.len());
    obs.emit(&rec, out)
}

/// Serialize a replica to `path` atomically (tmp + rename), so a
/// crash mid-write never leaves a truncated snapshot behind. Returns
/// the encoded size in bytes.
fn write_replica(path: &str, est: &MaxCoverEstimator) -> Result<usize, String> {
    let bytes = est.to_bytes();
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| format!("write {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {tmp} -> {path}: {e}"))?;
    Ok(bytes.len())
}

fn cmd_worker(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let system = load(flags)?;
    let k = parse_k(req(flags, "k")?)?;
    let alpha = parse_alpha(req(flags, "alpha")?)?;
    let order = parse_order(flags)?;
    let mut config = parse_config(flags)?;
    let obs = ObsOpts::parse(flags)?;
    let rec = obs.configure(&mut config);
    let shards = config.shards;
    let shard: usize = parse_num(req(flags, "shard")?, "shard")?;
    if shard >= shards {
        return Err(format!("--shard {shard} out of range for --shards {shards}"));
    }
    let out_path = req(flags, "out")?;
    let batch = parse_batch(flags)?.unwrap_or(DEFAULT_BATCH);
    let snapshot = flags.get("snapshot").cloned();
    let snapshot_every: u64 = match flags.get("snapshot-every") {
        Some(s) => parse_num(s, "snapshot-every")?,
        None => 0,
    };
    if snapshot_every > 0 && snapshot.is_none() {
        return Err("--snapshot-every needs --snapshot FILE".into());
    }
    if snapshot.is_some() && snapshot_every == 0 {
        return Err("--snapshot FILE needs --snapshot-every E >= 1".into());
    }
    let stop_after: Option<u64> = match flags.get("stop-after") {
        Some(s) => Some(parse_num(s, "stop-after")?),
        None => None,
    };

    // This worker owns the `shard`-th of `shards` contiguous chunks of
    // the arrival order — the split `MaxCoverEstimator::ingest` uses, so
    // the replica it writes is the state an in-process shard would hold.
    let edges = edge_stream(&system, order);
    let chunk = &edges[kcov_core::shard_range(edges.len(), shards, shard)];

    let (n, m) = (system.num_elements(), system.num_sets());
    let mut est = match flags.get("resume") {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
            let mut est = MaxCoverEstimator::from_bytes(&bytes)
                .map_err(|e| format!("decode {path}: {e}"))?;
            if est.shape() != (n, m, k, alpha) {
                return Err(format!(
                    "snapshot {path} was built for a different instance shape"
                ));
            }
            if est.shard() != shard as u64 {
                return Err(format!(
                    "snapshot {path} belongs to shard {}, not {shard}",
                    est.shard()
                ));
            }
            if est.edges_seen() > chunk.len() as u64 {
                return Err(format!(
                    "snapshot {path} records {} edges but shard {shard} only holds {}",
                    est.edges_seen(),
                    chunk.len()
                ));
            }
            est.attach_recorder(&rec);
            est
        }
        None => {
            let mut est = MaxCoverEstimator::new(n, m, k, alpha, &config);
            est.set_shard(shard as u64);
            est
        }
    };

    // Resume at the recorded offset: snapshots are written at batch
    // boundaries, so the remaining sub-chunk boundaries line up with an
    // uninterrupted run and the final replica is bit-identical.
    let skip = est.edges_seen() as usize;
    rec.provenance("worker-start", shard as u64, skip as u64, req(flags, "input")?);
    let span = rec.span("ingest");
    let mut stopped = false;
    for sub in chunk[skip..].chunks(batch) {
        est.observe_batch(sub);
        let done = est.edges_seen();
        // The simulated crash pre-empts this batch's snapshot, so
        // recovery genuinely replays from the previous checkpoint.
        if stop_after.is_some_and(|stop| done >= stop) {
            stopped = true;
            break;
        }
        if crosses_beat(done - sub.len() as u64, sub.len() as u64, snapshot_every) {
            let path = snapshot.as_deref().expect("--snapshot-every implies --snapshot");
            write_replica(path, &est)?;
            rec.provenance("snapshot", shard as u64, done, path);
        }
    }
    span.finish();
    if stopped {
        rec.provenance("crash", shard as u64, est.edges_seen(), "stop-after");
        obs.emit(&rec, out)?;
        eprintln!(
            "worker shard {shard}: stopped after {} edges (simulated crash; periodic snapshots kept)",
            est.edges_seen()
        );
        std::process::exit(3);
    }
    rec.provenance("worker-done", shard as u64, est.edges_seen(), out_path);
    let bytes = write_replica(out_path, &est)?;
    outln!(out, "worker shard   = {shard}/{shards}");
    outln!(out, "chunk edges    = {} (resumed at {skip})", chunk.len());
    outln!(out, "shard edges    = {}", est.edges_seen());
    outln!(out, "replica        = {out_path} ({bytes} bytes)");
    obs.emit(&rec, out)
}

fn cmd_merge_from(
    files: &[String],
    flags: &HashMap<String, String>,
    out: &mut dyn Write,
) -> Result<(), String> {
    if files.is_empty() {
        return Err("merge-from needs at least one replica file".into());
    }
    let obs = ObsOpts::parse(flags)?;
    let rec = obs.recorder();
    let mut replicas = Vec::with_capacity(files.len());
    for path in files {
        let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
        let start = rec.is_enabled().then(Instant::now);
        let est = MaxCoverEstimator::from_bytes(&bytes)
            .map_err(|e| format!("decode {path}: {e}"))?;
        let ns = start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        replicas.push((est, ns));
    }
    let (n0, m0, k0, alpha0) = replicas[0].0.shape();
    for (i, (est, _)) in replicas.iter().enumerate() {
        let (n, m, k, alpha) = est.shape();
        if (n, m, k, alpha.to_bits()) != (n0, m0, k0, alpha0.to_bits())
            || est.num_lanes() != replicas[0].0.num_lanes()
        {
            return Err(format!(
                "replica {} was built for a different instance or configuration than {}",
                files[i], files[0]
            ));
        }
    }
    // Deterministic fold order: ascending shard id, exactly the order
    // the in-process `--shards N` fold uses (shard 0 is the base). The
    // output is therefore independent of how FILEs were listed.
    replicas.sort_by_key(|(est, _)| est.shard());
    for w in replicas.windows(2) {
        if w[0].0.shard() == w[1].0.shard() {
            return Err(format!("two replicas claim shard {}", w[0].0.shard()));
        }
    }

    // A single replica, or an entirely empty stream, is a serial run:
    // nothing to fold. Otherwise the non-empty replicas (the in-process
    // splitter never creates empty ones) go through the same fold as
    // in-process `--shards N`, so the trace records the same events.
    let serial = files.len() == 1 || replicas.iter().all(|(est, _)| est.edges_seen() == 0);
    if !serial {
        replicas.retain(|(est, _)| est.edges_seen() > 0);
    }
    let (mut base, base_ns) = replicas.remove(0);
    base.attach_recorder(&rec);
    let span = rec.span("ingest");
    if !serial {
        base.fold_shards(base_ns, &replicas);
    }
    span.finish();
    let res = base.finalize();
    outln!(out, "estimate      = {:.1}", res.estimate);
    outln!(out, "winning z     = {}", res.winning_z);
    outln!(out, "winner        = {:?}", res.winner);
    outln!(out, "trivial       = {}", res.trivial);
    outln!(out, "space (words) = {}", base.space_words());
    outln!(out, "stream edges  = {}", base.edges_seen());
    obs.emit(&rec, out)
}

fn cmd_twopass(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let system = load(flags)?;
    let k = parse_k(req(flags, "k")?)?;
    let alpha = parse_alpha(req(flags, "alpha")?)?;
    let order = parse_order(flags)?;
    let mut config = parse_config(flags)?;
    let obs = ObsOpts::parse(flags)?;
    let rec = obs.configure(&mut config);
    let batch = stream_batch(flags, &config)?;
    let edges = edge_stream(&system, order);
    let (n, m) = (system.num_elements(), system.num_sets());
    let cover = kcov_core::run_two_pass(n, m, k, alpha, &config, &edges, batch);
    let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
    outln!(out, "reported sets  = {:?}", cover.sets);
    outln!(out, "real coverage  = {}", coverage_of(&system, &chosen));
    outln!(out, "estimate       = {:.1}", cover.estimate);
    outln!(out, "winner         = {:?}", cover.winner);
    outln!(out, "space (words)  = {} (pass 2)", cover.space_words);
    obs.emit(&rec, out)
}

fn cmd_budget(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let system = load(flags)?;
    let k = parse_k(req(flags, "k")?)?;
    let words: usize = parse_num(req(flags, "words")?, "words (space budget)")?;
    let order = parse_order(flags)?;
    let mut config = parse_config(flags)?;
    let obs = ObsOpts::parse(flags)?;
    let rec = obs.configure(&mut config);
    let (n, m) = (system.num_elements(), system.num_sets());
    let Some(mut fit) = kcov_core::fit_alpha_to_budget(n, m, k, words, &config) else {
        return Err(format!(
            "no alpha in [1, sqrt(m)] fits {words} words; smallest possible is {}",
            kcov_core::predict_space_words(n, m, k, (m as f64).sqrt().max(1.0), &config)
        ));
    };
    outln!(out, "budget         = {words} words");
    outln!(out, "fitted alpha   = {:.2}", fit.alpha);
    outln!(out, "predicted max  = {} words", fit.predicted_words);
    let batch = stream_batch(flags, &config)?;
    let edges = edge_stream(&system, order);
    let span = rec.span("ingest");
    fit.estimator.ingest(&edges, config.shards, batch);
    span.finish();
    let res = fit.estimator.finalize();
    outln!(out, "estimate       = {:.1}", res.estimate);
    outln!(out, "actual space   = {} words", fit.estimator.space_words());
    obs.emit(&rec, out)
}

/// Fields accumulated per `(stage, shard, at_edges)` heartbeat row.
#[derive(Default)]
struct BeatRow {
    lanes: u64,
    lc_fill: u64,
    ls_fill: u64,
    ss_fill: u64,
    evictions: u64,
    space_words: u64,
    /// Cumulative per-lane ingest wall clock summed over the row's
    /// lanes — the heartbeat-aligned time trajectory (0 when the trace
    /// predates wire v4 or the run was untimed).
    ns: u64,
}

/// Everything `trace-summarize` extracts from one NDJSON trace.
#[derive(Default)]
struct TraceSummary {
    lines: usize,
    /// phase name → (calls, total ns) from `"phase"` events.
    phases: BTreeMap<String, (u64, u64)>,
    /// `"counter"` lines, keyed as written (includes `time_ns.*`).
    counters: BTreeMap<String, u64>,
    /// Sum of `"subroutine"` `space_words` and how many contributed.
    subroutine_space: u64,
    subroutines: u64,
    /// Every `"subroutine"` event as `(lane, name, space_words)` — the
    /// cross-check targets for the ledger subtrees.
    subroutine_events: Vec<(u64, String, u64)>,
    /// `(estimate, space_words, edges)` from the `"summary"` event.
    summary: Option<(f64, u64, u64)>,
    /// `(stage, shard, at_edges)` → per-row aggregate over lanes.
    beats: BTreeMap<(String, u64, u64), BeatRow>,
    /// Reconstructed `"histogram"` events, in emission order.
    histograms: Vec<(String, Histogram)>,
    /// `"ledger"` events as flattened rows, in emission order
    /// (preorder of each attribution tree, subtree totals per row). A
    /// two-pass trace holds two trees (`estimator/...` then
    /// `pass2/...`), distinguished by their root path segment.
    ledger_rows: Vec<LedgerRow>,
    /// `"time_ledger_meta"` events as `(stage, root, threads, ns)` —
    /// one per emitted ledger tree, carrying the wall budget factors
    /// for the conservation re-check.
    time_meta: Vec<(String, String, u64, u64)>,
    /// Sum of `"sketch"` event `evictions` and how many contributed —
    /// the finalize-time totals the heartbeat trajectories must stay
    /// below.
    sketch_evictions: u64,
    sketch_events: u64,
}

fn json_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_f64).map(|v| v as u64)
}

fn parse_trace(path: &str) -> Result<TraceSummary, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut out = TraceSummary::default();
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("read {path}: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        out.lines += 1;
        let lineno = i + 1;
        let doc = Json::parse(&line).map_err(|e| format!("{path}:{lineno}: {e}"))?;
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{lineno}: missing \"kind\""))?;
        let bad = |field: &str| format!("{path}:{lineno}: {kind} event missing \"{field}\"");
        match kind {
            "phase" => {
                let name = doc
                    .get("phase")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("phase"))?;
                let ns = json_u64(&doc, "ns").ok_or_else(|| bad("ns"))?;
                let e = out.phases.entry(name.to_string()).or_insert((0, 0));
                e.0 += 1;
                e.1 += ns;
            }
            "counter" => {
                let key = doc
                    .get("key")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("key"))?;
                let value = json_u64(&doc, "value").ok_or_else(|| bad("value"))?;
                out.counters.insert(key.to_string(), value);
            }
            "subroutine" => {
                let words = json_u64(&doc, "space_words").ok_or_else(|| bad("space_words"))?;
                let lane = json_u64(&doc, "lane").ok_or_else(|| bad("lane"))?;
                let name = doc
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("name"))?;
                out.subroutine_space += words;
                out.subroutines += 1;
                out.subroutine_events.push((lane, name.to_string(), words));
            }
            "sketch" => {
                out.sketch_evictions += json_u64(&doc, "evictions").ok_or_else(|| bad("evictions"))?;
                out.sketch_events += 1;
            }
            "ledger" => {
                let path = doc
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("path"))?;
                out.ledger_rows.push(LedgerRow {
                    path: path.to_string(),
                    words: json_u64(&doc, "words").ok_or_else(|| bad("words"))?,
                    updates: json_u64(&doc, "updates").ok_or_else(|| bad("updates"))?,
                    touched_words: json_u64(&doc, "touched_words")
                        .ok_or_else(|| bad("touched_words"))?,
                    ns: json_u64(&doc, "ns").ok_or_else(|| bad("ns"))?,
                    children: json_u64(&doc, "children").ok_or_else(|| bad("children"))? as usize,
                });
            }
            "time_ledger_meta" => {
                let stage = doc
                    .get("stage")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("stage"))?;
                let root = doc
                    .get("root")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("root"))?;
                out.time_meta.push((
                    stage.to_string(),
                    root.to_string(),
                    json_u64(&doc, "threads").ok_or_else(|| bad("threads"))?,
                    json_u64(&doc, "ns").ok_or_else(|| bad("ns"))?,
                ));
            }
            "summary" => {
                let est = doc
                    .get("estimate")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("estimate"))?;
                let words = json_u64(&doc, "space_words").ok_or_else(|| bad("space_words"))?;
                let edges = json_u64(&doc, "edges").ok_or_else(|| bad("edges"))?;
                out.summary = Some((est, words, edges));
            }
            "heartbeat" => {
                let stage = doc
                    .get("stage")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("stage"))?;
                let shard = json_u64(&doc, "shard").ok_or_else(|| bad("shard"))?;
                let at = json_u64(&doc, "at_edges").ok_or_else(|| bad("at_edges"))?;
                let row = out
                    .beats
                    .entry((stage.to_string(), shard, at))
                    .or_default();
                row.lanes += 1;
                row.lc_fill += json_u64(&doc, "lc_fill").unwrap_or(0);
                row.ls_fill += json_u64(&doc, "ls_fill").unwrap_or(0);
                row.ss_fill += json_u64(&doc, "ss_fill").unwrap_or(0);
                row.evictions += json_u64(&doc, "evictions").unwrap_or(0);
                row.space_words += json_u64(&doc, "space_words").unwrap_or(0);
                row.ns += json_u64(&doc, "ns").unwrap_or(0);
            }
            "histogram" => {
                let name = doc
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("name"))?;
                let sum = json_u64(&doc, "sum").ok_or_else(|| bad("sum"))?;
                let min = json_u64(&doc, "min").ok_or_else(|| bad("min"))?;
                let max = json_u64(&doc, "max").ok_or_else(|| bad("max"))?;
                let mut buckets: Vec<(usize, u64)> = Vec::new();
                if let Json::Obj(entries) = &doc {
                    for (k, v) in entries {
                        if let Some(idx) =
                            k.strip_prefix('b').and_then(|s| s.parse::<usize>().ok())
                        {
                            buckets.push((idx, v.as_f64().unwrap_or(0.0) as u64));
                        }
                    }
                }
                let hist = Histogram::from_parts(&buckets, sum, min, max).ok_or_else(|| {
                    format!("{path}:{lineno}: inconsistent histogram '{name}'")
                })?;
                let count = json_u64(&doc, "count").ok_or_else(|| bad("count"))?;
                if hist.count() != count {
                    return Err(format!(
                        "{path}:{lineno}: histogram '{name}' says count={count} but buckets sum to {}",
                        hist.count()
                    ));
                }
                out.histograms.push((name.to_string(), hist));
            }
            // Other kinds (lane, shard, twopass, gauge, …) are valid
            // trace content but carry nothing this summary needs.
            _ => {}
        }
    }
    Ok(out)
}

/// Re-check the accounting invariants a well-formed trace satisfies:
/// phase event nanos sum to the matching `time_ns.*` counter in both
/// directions, and per-subroutine resident space sums to the summary
/// total. Returns all violations rather than stopping at the first.
fn trace_invariant_violations(t: &TraceSummary) -> Vec<String> {
    let mut violations = Vec::new();
    for (name, &(_, total_ns)) in &t.phases {
        match t.counters.get(&format!("time_ns.{name}")) {
            Some(&c) if c == total_ns => {}
            Some(&c) => violations.push(format!(
                "phase '{name}': events sum to {total_ns} ns but counter time_ns.{name} = {c}"
            )),
            None => violations.push(format!(
                "phase '{name}': {total_ns} ns of events but no time_ns.{name} counter"
            )),
        }
    }
    for (key, &value) in &t.counters {
        if let Some(name) = key.strip_prefix("time_ns.") {
            if !t.phases.contains_key(name) {
                violations
                    .push(format!("counter {key} = {value} has no matching phase events"));
            }
        }
    }
    if let Some((_, summary_words, _)) = t.summary {
        if t.subroutines > 0 && t.subroutine_space != summary_words {
            violations.push(format!(
                "subroutine space_words sum to {} but summary reports {summary_words}",
                t.subroutine_space
            ));
        }
    }
    // Every heartbeat records a fill/eviction delta into the ingest
    // histograms, so a trace with heartbeats but no histogram events
    // has been truncated or hand-edited.
    if !t.beats.is_empty() && t.histograms.is_empty() {
        violations.push(format!(
            "{} heartbeat row(s) but no histogram events (every heartbeat records a delta)",
            t.beats.len()
        ));
    }
    // Heartbeat ↔ SketchStats cross-check: eviction counters are
    // monotone per (stage, shard) in stream position (the BTreeMap
    // iterates `at_edges` ascending within each group), and the final
    // per-shard snapshots can never exceed the finalize-time sketch
    // totals — the merged totals include every shard's evictions plus
    // any the merge itself performed.
    let mut final_ev: BTreeMap<(&str, u64), u64> = BTreeMap::new();
    let mut last_ns: BTreeMap<(&str, u64), u64> = BTreeMap::new();
    for ((stage, shard, at), row) in &t.beats {
        let prev = final_ev.entry((stage.as_str(), *shard)).or_insert(0);
        if row.evictions < *prev {
            violations.push(format!(
                "heartbeat evictions not monotone: stage '{stage}' shard {shard} \
                 drops from {prev} to {} at {at} edges",
                row.evictions
            ));
        }
        *prev = (*prev).max(row.evictions);
        // Heartbeat `ns` payloads are cumulative per lane, so each
        // trajectory summed over its (constant) lane set is monotone too.
        let prev = last_ns.entry((stage.as_str(), *shard)).or_insert(0);
        if row.ns < *prev {
            violations.push(format!(
                "heartbeat ns not monotone: stage '{stage}' shard {shard} drops from {prev} \
                 to {} at {at} edges",
                row.ns
            ));
        }
        *prev = (*prev).max(row.ns);
    }
    if t.sketch_events > 0 && !final_ev.is_empty() {
        // Only the estimate-stage trajectories: the "sketch" events are
        // the estimator's finalize snapshot, while pass-2 lanes evict
        // into sketches no such event covers.
        let beats_total: u64 = final_ev
            .iter()
            .filter(|((stage, _), _)| *stage == "estimate")
            .map(|(_, v)| v)
            .sum();
        if beats_total > t.sketch_evictions {
            violations.push(format!(
                "final heartbeats record {beats_total} evictions across shards but the \
                 finalize-time sketch totals only {}",
                t.sketch_evictions
            ));
        }
    }
    violations
}

/// Re-check the invariants of a trace's `"ledger"` events (DESIGN.md
/// §13), tree by tree (the `estimator` root, and `pass2` in two-pass
/// traces): every interior row declares as many children as the trace
/// holds and each of its four columns equals the sum of its immediate
/// children's; the `estimator` root's words equal the summary total;
/// each per-subroutine subtree matches its `"subroutine"` event's
/// `space_words` exactly; every `"time_ledger_meta"` event agrees with
/// its root row's ns; and attribution is conserved — a tree's total ns
/// can never exceed its stage's measured batch wall clock (`*.batch_ns`
/// histogram sum) times the worker-thread count, because every
/// attributed interval nests inside a batch interval and at most
/// `threads` lanes overlap. Returns all violations.
fn ledger_invariant_violations(t: &TraceSummary) -> Vec<String> {
    let rows = &t.ledger_rows;
    let mut violations = Vec::new();
    let cols = |r: &LedgerRow| [r.words, r.updates, r.touched_words, r.ns].map(u128::from);
    for parent in rows.iter().filter(|r| r.children > 0) {
        let prefix = format!("{}/", parent.path);
        let children: Vec<&LedgerRow> = rows
            .iter()
            .filter(|r| r.path.strip_prefix(&prefix).is_some_and(|rest| !rest.contains('/')))
            .collect();
        if children.len() != parent.children {
            violations.push(format!(
                "ledger '{}' declares {} children but the trace holds {}",
                parent.path,
                parent.children,
                children.len()
            ));
            continue;
        }
        let mut sums = [0u128; 4];
        for child in &children {
            for (sum, v) in sums.iter_mut().zip(cols(child)) {
                *sum += v;
            }
        }
        if sums != cols(parent) {
            violations.push(format!(
                "ledger '{}' totals (words, updates, touched_words, ns) {:?} != children sums {:?}",
                parent.path,
                cols(parent),
                sums
            ));
        }
    }
    let root = rows.iter().find(|r| r.path == "estimator");
    if let (Some(root), Some((_, summary_words, _))) = (root, t.summary) {
        if root.words != summary_words {
            violations.push(format!(
                "ledger root '{}' attributes {} words but the summary reports {summary_words}",
                root.path, root.words
            ));
        }
    }
    // Per-subroutine partial sums: the lane-subtree child names are the
    // subroutine event names by construction; `trivial`, `fingerprints`
    // and the shared `universe` mix are estimator-global (their events
    // carry lane 0).
    for (lane, name, words) in &t.subroutine_events {
        let path = match name.as_str() {
            "trivial" | "fingerprints" | "universe" => format!("estimator/{name}"),
            _ => format!("estimator/lane{lane}/{name}"),
        };
        match rows.iter().find(|r| r.path == path) {
            Some(r) if r.words == *words => {}
            Some(r) => violations.push(format!(
                "ledger '{path}' attributes {} words but subroutine '{name}' \
                 (lane {lane}) reports {words}",
                r.words
            )),
            None => violations.push(format!(
                "subroutine '{name}' (lane {lane}, {words} words) has no ledger subtree at '{path}'"
            )),
        }
    }
    for (stage, root, threads, meta_ns) in &t.time_meta {
        match rows.iter().find(|r| &r.path == root) {
            Some(r) if r.ns == *meta_ns => {}
            Some(r) => violations.push(format!(
                "ledger root '{root}' attributes {} ns but its meta event reports {meta_ns}",
                r.ns
            )),
            None => violations.push(format!(
                "time_ledger_meta for stage '{stage}' has no ledger rows at root '{root}'"
            )),
        }
        // The wall budget of each stage: the batch-granular clocks only
        // run inside `observe_batch`, whose wall intervals the
        // `batch_ns` histogram records (merged additively across shards
        // and replicas, exactly like the ledger's ns totals).
        let hist = match stage.as_str() {
            "estimate" => "ingest.batch_ns",
            "pass2" => "pass2.ingest.batch_ns",
            other => {
                violations.push(format!("time_ledger_meta names unknown stage '{other}'"));
                continue;
            }
        };
        let wall: u64 = t
            .histograms
            .iter()
            .filter(|(name, _)| name == hist)
            .map(|(_, h)| h.sum())
            .sum();
        let budget = wall.saturating_mul((*threads).max(1));
        if *meta_ns > budget {
            violations.push(format!(
                "ledger stage '{stage}' attributes {meta_ns} ns but the wall budget is \
                 {budget} ns ({hist} sum {wall} x {threads} thread(s))"
            ));
        }
    }
    violations
}

/// What `prof` renders: a banner line naming the source, the ledger
/// rows (preorder, one tree after another), and the invariant
/// violations found while collecting them.
type ProfSource = (String, Vec<LedgerRow>, Vec<String>);

/// `maxkcov prof` — render the attribution ledger from a trace file
/// (positional) or a live run (`--input`), re-checking the ledger
/// invariants either way. Leaves are ranked by words, or with `--time`
/// by ns; `--folded` prints folded stacks of the ns column instead.
fn cmd_prof(
    files: &[String],
    flags: &HashMap<String, String>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let top: usize = match flags.get("top") {
        Some(s) => parse_num(s, "top")?,
        None => 20,
    };
    let time = flags.contains_key("time");
    if flags.contains_key("folded") && !time {
        return Err("--folded needs --time (folded stacks are a rendering of the ns column)".into());
    }
    let folded = flags.contains_key("folded");
    let (banner, rows, violations) = match (files, flags.contains_key("input")) {
        ([path], false) => prof_trace(path)?,
        ([], true) => prof_live(flags)?,
        ([], false) => return Err("prof needs a TRACE file or --input FILE for a live run".into()),
        (_, true) => return Err("prof takes a TRACE file or --input, not both".into()),
        (_, false) => return Err("prof takes exactly one TRACE file".into()),
    };
    let (rank, label) = if time { (Rank::Ns, "time") } else { (Rank::Words, "ledger") };
    if folded {
        // Folded stacks only on stdout, so the output pipes straight
        // into flamegraph.pl / inferno-flamegraph.
        out!(out, "{}", render_folded(&rows));
    } else {
        outln!(out, "{banner}");
        outln!(out, "{:<15}= {}", format!("{label} nodes"), rows.len());
        // Emission order groups each tree's preorder rows contiguously;
        // rendering per root keeps the % column scaled per tree.
        let root = |r: &LedgerRow| r.path.split('/').next().unwrap_or("").to_string();
        for tree in rows.chunk_by(|a, b| root(a) == root(b)) {
            outln!(out);
            out!(out, "{}", render_ledger_report(tree, top, rank));
        }
        outln!(out);
    }
    if violations.is_empty() {
        if !folded {
            outln!(out, "{label} invariants OK");
        }
        return Ok(());
    }
    for v in &violations {
        eprintln!("invariant violated: {v}");
    }
    Err(format!("{} {label} invariant(s) violated", violations.len()))
}

/// `maxkcov prof TRACE`: the `"ledger"` rows of a `--trace` file,
/// checked by [`ledger_invariant_violations`].
fn prof_trace(path: &str) -> Result<ProfSource, String> {
    let t = parse_trace(path)?;
    if t.ledger_rows.is_empty() {
        return Err(format!(
            "trace {path} contains no ledger events (re-run the traced command)"
        ));
    }
    let violations = ledger_invariant_violations(&t);
    Ok((format!("trace          = {path}"), t.ledger_rows, violations))
}

/// `maxkcov prof --input FILE …`: run an ingest with a live recorder
/// (the batch-granular clocks only run against one; prof never emits
/// its event stream) and audit the resulting ledger: leaves-only
/// attribution, the exact word sum against `space_words`, and ns
/// conservation against the measured ingest wall clock.
fn prof_live(flags: &HashMap<String, String>) -> Result<ProfSource, String> {
    let system = load(flags)?;
    let k = parse_k(req(flags, "k")?)?;
    let alpha = parse_alpha(req(flags, "alpha")?)?;
    let order = parse_order(flags)?;
    let mut config = parse_config(flags)?;
    config.recorder = Recorder::enabled();
    let batch = parse_batch(flags)?.unwrap_or(DEFAULT_BATCH);
    let edges = edge_stream(&system, order);
    let mut est =
        MaxCoverEstimator::new(system.num_elements(), system.num_sets(), k, alpha, &config);
    let t0 = Instant::now();
    est.ingest(&edges, config.shards, Some(batch));
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let ledger = est.space_ledger_tree();
    let mut violations = ledger.audit();
    let (words, expected) = (ledger.total_words(), est.space_words() as u64);
    if words != expected {
        violations.push(format!(
            "ledger attributes {words} words but space_words reports {expected}"
        ));
    }
    // Every attributed interval nests inside the ingest wall, at most
    // `threads` lanes overlap within a replica, and `shards` replicas
    // run concurrently.
    let (threads, shards) = (config.threads.max(1), config.shards.max(1));
    let budget = wall_ns
        .saturating_mul(threads as u64)
        .saturating_mul(shards as u64);
    if ledger.total_ns() > budget {
        violations.push(format!(
            "ledger attributes {} ns but the ingest wall budget is {budget} ns \
             ({wall_ns} ns x {threads} thread(s) x {shards} shard(s))",
            ledger.total_ns()
        ));
    }
    let banner = format!("live run       = {} edges, k={k}, alpha={alpha}", edges.len());
    Ok((banner, ledger.rows(), violations))
}

fn cmd_trace_summarize(path: &str, out: &mut dyn Write) -> Result<(), String> {
    let t = parse_trace(path)?;
    if t.lines == 0 {
        return Err(format!("trace {path} contains no events"));
    }
    outln!(out, "trace          = {path}");
    outln!(out, "events         = {}", t.lines);
    if !t.phases.is_empty() {
        outln!(out);
        outln!(out, "phase                    calls      total ns");
        for (name, (calls, ns)) in &t.phases {
            outln!(out, "  {name:<22} {calls:>5}  {ns:>12}");
        }
    }
    if let Some((est, words, edges)) = t.summary {
        outln!(out);
        outln!(out, "summary estimate         = {est:.1}");
        outln!(out, "summary space (words)    = {words}");
        outln!(out, "summary edges            = {edges}");
        if t.subroutines > 0 {
            outln!(
                out,
                "subroutine space (words) = {} across {} subroutines",
                t.subroutine_space, t.subroutines
            );
        }
    }
    if !t.beats.is_empty() {
        outln!(out);
        outln!(out, "heartbeats (fills and cumulative lane ns summed over lanes)");
        outln!(out, "  stage     shard    at_edges  lanes   lc_fill   ls_fill   ss_fill  evictions     space            ns");
        for ((stage, shard, at), row) in &t.beats {
            outln!(
                out,
                "  {stage:<8} {shard:>6}  {at:>10}  {lanes:>5}  {lc:>8}  {ls:>8}  {ss:>8}  {ev:>9}  {sp:>8}  {ns:>12}",
                lanes = row.lanes,
                lc = row.lc_fill,
                ls = row.ls_fill,
                ss = row.ss_fill,
                ev = row.evictions,
                sp = row.space_words,
                ns = row.ns,
            );
        }
    }
    if !t.ledger_rows.is_empty() {
        outln!(out);
        outln!(out, "ledger ({} nodes; prof [--time] for the full report)", t.ledger_rows.len());
        for (stage, root, threads, ns) in &t.time_meta {
            outln!(out, "  stage {stage:<9} root {root:<10} threads {threads}  {ns:>12} ns attributed");
        }
    }
    if !t.histograms.is_empty() {
        outln!(out);
        outln!(out, "histogram                   count         sum        mean       p50       p90       p99       max");
        for (name, h) in &t.histograms {
            let q = |p: f64| h.quantile(p).unwrap_or(0);
            outln!(
                out,
                "  {name:<24} {count:>8}  {sum:>10}  {mean:>10.1}  {p50:>8}  {p90:>8}  {p99:>8}  {max:>8}",
                count = h.count(),
                sum = h.sum(),
                mean = h.mean(),
                p50 = q(0.5),
                p90 = q(0.9),
                p99 = q(0.99),
                max = h.max().unwrap_or(0),
            );
        }
    }
    let mut violations = trace_invariant_violations(&t);
    violations.extend(ledger_invariant_violations(&t));
    outln!(out);
    if violations.is_empty() {
        outln!(out, "invariants OK");
        Ok(())
    } else {
        for v in &violations {
            eprintln!("invariant violated: {v}");
        }
        Err(format!(
            "{} trace invariant(s) violated in {path}",
            violations.len()
        ))
    }
}

fn cmd_setcover(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let system = load(flags)?;
    let fraction: f64 = match flags.get("fraction") {
        Some(s) => parse_num(s, "fraction")?,
        None => 1.0,
    };
    if !(0.0..=1.0).contains(&fraction) {
        return Err("fraction must be in [0, 1]".into());
    }
    let r = kcov_baselines::partial_set_cover(&system, fraction);
    outln!(out, "target fraction = {fraction}");
    outln!(out, "sets used       = {}", r.chosen.len());
    outln!(out, "covered         = {}", r.covered);
    outln!(out, "complete        = {}", r.complete);
    outln!(out, "sets            = {:?}", r.chosen);
    Ok(())
}

fn cmd_report(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let system = load(flags)?;
    let k = parse_k(req(flags, "k")?)?;
    let alpha = parse_alpha(req(flags, "alpha")?)?;
    let order = parse_order(flags)?;
    let mut config = parse_config(flags)?;
    let obs = ObsOpts::parse(flags)?;
    let rec = obs.configure(&mut config);
    let batch = stream_batch(flags, &config)?;
    let edges = edge_stream(&system, order);
    let mut rep = MaxCoverReporter::new(system.num_elements(), system.num_sets(), k, alpha, &config);
    let span = rec.span("ingest");
    rep.ingest(&edges, config.shards, batch);
    span.finish();
    let cover = rep.finalize();
    let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
    outln!(out, "reported sets  = {:?}", cover.sets);
    outln!(out, "real coverage  = {}", coverage_of(&system, &chosen));
    outln!(out, "estimate       = {:.1}", cover.estimate);
    outln!(out, "winner         = {:?}", cover.winner);
    outln!(out, "space (words)  = {}", cover.space_words);
    obs.emit(&rec, out)
}
