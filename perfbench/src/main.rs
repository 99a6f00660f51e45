//! Measurement program of the maxkcov benchmark; `run.py` drives it and
//! README.md describes the workloads and metrics.
//!
//! ```text
//! kcov-perfbench gen --workload W --seed S --out FILE
//!     Write the workload's instance for seed S and print, as one JSON
//!     line, its shape, the untimed references the answer checks use, and
//!     the `maxkcov estimate` flags that take the same path.
//! kcov-perfbench rep --workload W --input FILE [--spans FILE]
//!     Run one repetition in this fresh process and print one JSON line.
//!     With --spans, also replay the lanes layer by layer beside the
//!     estimator, write every recorded span to FILE and report the
//!     per-layer counts.
//! ```

mod pipeline;
mod replay;
mod spans;
mod workload;

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::time::Instant;

use maxkcov::baselines::greedy_max_cover;
use maxkcov::core::MaxCoverEstimator;
use maxkcov::stream::edge_stream;
use maxkcov::stream::io::{read_set_system, write_set_system};

use spans::Tracer;
use workload::{Ingest, Workload, BATCH};

/// Set-up samples per repetition (the one inside the run included): at
/// least `SETUP_SAMPLES`, taken for at least `SETUP_MIN_S`, at most
/// `SETUP_MAX_SAMPLES`.
const SETUP_SAMPLES: usize = 7;
const SETUP_MIN_S: f64 = 0.25;
const SETUP_MAX_SAMPLES: usize = 1000;

/// Minimal JSON object writer for flat numeric records.
struct Obj(Vec<String>);

impl Obj {
    fn new() -> Self {
        Obj(Vec::new())
    }
    fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.0.push(format!("\"{key}\":{value}"));
        self
    }
    fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".into()
        };
        self.raw(key, v)
    }
    fn list<T: std::fmt::Display>(&mut self, key: &str, values: &[T]) -> &mut Self {
        let items: Vec<String> = values.iter().map(ToString::to_string).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }
    fn strings(&mut self, key: &str, values: &[String]) -> &mut Self {
        let quoted: Vec<String> = values.iter().map(|v| format!("\"{v}\"")).collect();
        self.list(key, &quoted)
    }
    fn render(&self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

fn flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got '{key}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name, value.as_str());
    }
    Ok(out)
}

fn flag<'a>(f: &HashMap<&str, &'a str>, name: &str) -> Result<&'a str, String> {
    f.get(name)
        .copied()
        .ok_or_else(|| format!("missing --{name}"))
}

fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn gen(w: &Workload, seed: u64, out: &Path) -> Result<(), String> {
    let system = w.generate(seed);
    let file = File::create(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut writer = BufWriter::new(file);
    write_set_system(&system, &mut writer).map_err(|e| format!("write {}: {e}", out.display()))?;
    writer
        .into_inner()
        .map_err(|e| format!("flush {}: {e}", out.display()))?;
    // References come from the text as the program reads it back.
    let file = File::open(out).map_err(|e| format!("open {}: {e}", out.display()))?;
    let system = read_set_system(BufReader::new(file)).map_err(|e| format!("parse: {e}"))?;
    let (n, m) = (system.num_elements(), system.num_sets());
    let edges = edge_stream(&system, w.order());
    let mut est = MaxCoverEstimator::new(n, m, w.k, w.alpha, &w.config());
    let mut o = Obj::new();
    if w.ingest == Ingest::Sharded {
        // The serial reference: one estimator, `observe_batch` over the
        // whole stream, which the merged estimate must equal.
        for chunk in edges.chunks(BATCH) {
            est.observe_batch(chunk);
        }
        let reference = est.finalize();
        o.num("serial_estimate", reference.estimate).raw(
            "serial_estimate_bits",
            format!("\"{:016x}\"", reference.estimate.to_bits()),
        );
    }
    o.num("n", n as f64)
        .num("m", m as f64)
        .num("k", w.k as f64)
        .num("alpha", w.alpha)
        .num("edges", edges.len() as f64)
        .num("lanes", est.num_lanes() as f64)
        .num("greedy", greedy_max_cover(&system, w.k).coverage as f64)
        .strings("cli_flags", &w.cli_flags());
    println!("{}", o.render());
    Ok(())
}

fn rep(w: &Workload, input: &Path, spans_out: Option<&Path>) -> Result<(), String> {
    let mut tr = Tracer::new(spans_out.is_some());
    let run = pipeline::run(w, input, &mut tr, spans_out.is_some())?;
    let peak_kb = peak_rss_kb()?;
    let mut setup = vec![run.setup_s];
    let start = Instant::now();
    while setup.len() < SETUP_SAMPLES
        || (start.elapsed().as_secs_f64() < SETUP_MIN_S && setup.len() < SETUP_MAX_SAMPLES)
    {
        setup.push(pipeline::time_setup(w, run.n, run.m));
    }
    let mut o = Obj::new();
    o.num("parse_s", run.parse_s)
        .num("order_s", run.order_s)
        .num("ingest_s", run.ingest_s)
        .num("answer_s", run.answer_s)
        .num("run_s", run.run_s)
        .num("edges", run.edges as f64)
        .num("lanes", run.est.num_lanes() as f64)
        .num("estimate", run.estimate)
        .raw(
            "estimate_bits",
            format!("\"{:016x}\"", run.estimate.to_bits()),
        )
        .num("space_words", run.space_words as f64)
        .num("wire_bytes", run.wire_bytes as f64)
        .num("peak_rss_kb", peak_kb as f64)
        .list("setup_s", &setup)
        .list("batch_ns", &run.batch_ns);
    if let (Some(path), Some(replay)) = (spans_out, &run.replay) {
        let (counts, matched) = replay.layer_counts(&run.est);
        let mut layers = Obj::new();
        for (name, value) in &counts {
            layers.num(name, *value);
        }
        layers.raw("state_match", matched.to_string());
        o.raw("layers", layers.render());
        let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        tr.write_json(BufWriter::new(file))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", o.render());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = (|| -> Result<(), String> {
        let (cmd, rest) = args
            .split_first()
            .ok_or("usage: kcov-perfbench gen|rep --workload W …")?;
        let f = flags(rest)?;
        let w = Workload::by_name(flag(&f, "workload")?)?;
        match cmd.as_str() {
            "gen" => {
                let seed = flag(&f, "seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?;
                gen(w, seed, Path::new(flag(&f, "out")?))
            }
            "rep" => rep(
                w,
                Path::new(flag(&f, "input")?),
                f.get("spans").map(Path::new),
            ),
            other => Err(format!("unknown command '{other}'")),
        }
    })();
    if let Err(e) = result {
        eprintln!("kcov-perfbench: {e}");
        std::process::exit(2);
    }
}
