//! # kcov-obs — zero-dependency structured observability
//!
//! One instrumentation spine for the whole workspace: a cheap clonable
//! [`Recorder`] handle that collects **counters**, **gauges**, and
//! structured **events** (with monotonic [`PhaseSpan`] timing), renders
//! them as an NDJSON event log or a human summary table — and whose
//! disabled form is a `None` behind an `Option`, so every probe
//! early-returns on a single branch and the determinism and merge
//! contracts of the estimator stack are untouched.
//!
//! Design rules enforced across the workspace:
//!
//! * **No locks on per-edge paths.** Sketches maintain plain `u64`
//!   rare-event counters (evictions, prunes, merges) next
//!   to the branches where those events already happen; the counters
//!   are *harvested* into a `Recorder` once, at finalize, as
//!   [`SketchStats`] snapshots. The shared sink is only touched at
//!   phase boundaries (ingest / merge / finalize), never per item.
//! * **Observation never perturbs results.** The recorder is a pure
//!   side channel: nothing in the estimator reads it back, replicas
//!   cloned for sharded ingestion share the same sink but only write
//!   to it from the coordinating thread, and the disabled handle makes
//!   every probe a no-op.
//! * **Zero dependencies.** NDJSON rendering, escaping, and the
//!   [`json`] parser used by the bench emitters and CI validation are
//!   hand-rolled over `std`.

pub mod json;

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A dynamically typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, sizes, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (estimates, rates).
    F64(f64),
    /// String (names, labels).
    Str(String),
    /// Boolean (flags).
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl Value {
    fn render_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => push_json_f64(out, *v),
            Value::Str(s) => push_json_str(out, s),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` on f64 prints the shortest representation that
        // round-trips, and never produces NaN/Inf here.
        if v == v.trunc() && v.abs() < 1e15 {
            out.push_str(&format!("{:.1}", v));
        } else {
            out.push_str(&format!("{v}"));
        }
    } else {
        // NDJSON must stay valid JSON: encode non-finite as null.
        out.push_str("null");
    }
}

/// One structured event: a kind plus ordered key/value fields, stamped
/// with a monotone per-recorder sequence number.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotone sequence number (order of emission).
    pub seq: u64,
    /// Event kind (`"phase"`, `"lane"`, `"subroutine"`, `"sketch"`,
    /// `"shard"`, `"summary"`, …).
    pub kind: String,
    /// Ordered fields as emitted.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Render this event as one NDJSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"kind\":");
        push_json_str(&mut out, &self.kind);
        for (k, v) in &self.fields {
            out.push(',');
            push_json_str(&mut out, k);
            out.push(':');
            v.render_json(&mut out);
        }
        out.push('}');
        out
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A `U64` field, if present and of that type.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        match self.field(key) {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// An `F64` field, if present and of that type.
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        match self.field(key) {
            Some(Value::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// A `Str` field, if present and of that type.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    events: Vec<Event>,
    seq: u64,
}

/// A cheap clonable recorder handle. The default (and
/// [`Recorder::disabled`]) form carries no state: every probe is a
/// single `Option` branch, no allocation, no lock. The enabled form
/// shares one mutex-guarded sink across clones, so estimator replicas
/// moved onto scoped threads can keep the same handle.
#[derive(Clone, Default)]
pub struct Recorder(Option<Arc<Mutex<State>>>);

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("Recorder(disabled)"),
            Some(_) => f.write_str("Recorder(enabled)"),
        }
    }
}

impl Recorder {
    /// The no-op handle: every probe early-returns.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// A live recorder with an empty sink.
    pub fn enabled() -> Self {
        Recorder(Some(Arc::new(Mutex::new(State::default()))))
    }

    /// Whether probes on this handle record anything. Callers building
    /// non-trivial keys or field vectors should gate on this first so
    /// the disabled path allocates nothing.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn state(&self) -> Option<std::sync::MutexGuard<'_, State>> {
        self.0
            .as_ref()
            .map(|m| m.lock().expect("recorder sink poisoned"))
    }

    /// Add `by` to the counter `key`.
    pub fn incr(&self, key: &str, by: u64) {
        if let Some(mut st) = self.state() {
            *st.counters.entry(key.to_string()).or_insert(0) += by;
        }
    }

    /// Set the gauge `key` to `value` (last write wins).
    pub fn gauge(&self, key: &str, value: f64) {
        if let Some(mut st) = self.state() {
            st.gauges.insert(key.to_string(), value);
        }
    }

    /// Emit a structured event.
    pub fn event(&self, kind: &str, fields: &[(&str, Value)]) {
        if let Some(mut st) = self.state() {
            let seq = st.seq;
            st.seq += 1;
            st.events.push(Event {
                seq,
                kind: kind.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            });
        }
    }

    /// Start a monotonic phase span. On [`PhaseSpan::finish`] (or drop)
    /// the elapsed nanoseconds are added to the counter
    /// `time_ns.<phase>` and a `"phase"` event is emitted. On a
    /// disabled recorder the span reads no clock.
    pub fn span(&self, phase: &str) -> PhaseSpan {
        PhaseSpan {
            rec: self.clone(),
            phase: if self.is_enabled() {
                phase.to_string()
            } else {
                String::new()
            },
            start: self.is_enabled().then(Instant::now),
        }
    }

    /// Record a sketch telemetry snapshot as a `"sketch"` event.
    /// `scope` names where the sketch sits in the stack (e.g.
    /// `"lane3.large_set.rep0"`), `kind` the sketch type.
    pub fn sketch(&self, scope: &str, kind: &str, stats: SketchStats) {
        if !self.is_enabled() {
            return;
        }
        self.event(
            "sketch",
            &[
                ("scope", scope.into()),
                ("sketch", kind.into()),
                ("updates", stats.updates.into()),
                ("fill", stats.fill.into()),
                ("capacity", stats.capacity.into()),
                ("evictions", stats.evictions.into()),
                ("prunes", stats.prunes.into()),
                ("merges", stats.merges.into()),
            ],
        );
    }

    /// Record a distributed-ingestion provenance event: which worker
    /// reached which lifecycle `stage` (`"worker-start"`,
    /// `"snapshot"`, `"worker-done"`, `"replica"`), on which shard,
    /// after how many edges. `detail` carries free-form context such
    /// as the snapshot path. Provenance is worker-local narration —
    /// coordinator traces never carry it, so differential byte
    /// comparisons against single-process runs stay clean.
    pub fn provenance(&self, stage: &str, shard: u64, edges: u64, detail: &str) {
        if !self.is_enabled() {
            return;
        }
        self.event(
            "provenance",
            &[
                ("stage", stage.into()),
                ("shard", shard.into()),
                ("edges", edges.into()),
                ("detail", detail.into()),
            ],
        );
    }

    /// Record a [`Histogram`] as one `"histogram"` event. Non-empty
    /// buckets are emitted as flat `b<i>` fields (events carry scalar
    /// values only), alongside the `count`/`sum`/`min`/`max` envelope —
    /// enough for [`Histogram::from_parts`] to rebuild the histogram
    /// from the NDJSON line.
    pub fn histogram(&self, name: &str, hist: &Histogram) {
        if !self.is_enabled() {
            return;
        }
        let mut fields: Vec<(String, Value)> = vec![
            ("name".to_string(), name.into()),
            ("count".to_string(), hist.count().into()),
            ("sum".to_string(), hist.sum().into()),
            ("min".to_string(), hist.min().unwrap_or(0).into()),
            ("max".to_string(), hist.max().unwrap_or(0).into()),
        ];
        for (i, c) in hist.nonzero_buckets() {
            fields.push((format!("b{i}"), c.into()));
        }
        if let Some(mut st) = self.state() {
            let seq = st.seq;
            st.seq += 1;
            st.events.push(Event {
                seq,
                kind: "histogram".to_string(),
                fields,
            });
        }
    }

    /// Snapshot of all counters, sorted by key.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.state()
            .map(|st| st.counters.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default()
    }

    /// Snapshot of all gauges, sorted by key.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.state()
            .map(|st| st.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default()
    }

    /// Snapshot of all events in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.state().map(|st| st.events.clone()).unwrap_or_default()
    }

    /// Events of one kind, in emission order.
    pub fn events_of(&self, kind: &str) -> Vec<Event> {
        self.events().into_iter().filter(|e| e.kind == kind).collect()
    }

    /// Write the full sink as NDJSON: every event in emission order,
    /// then one `"counter"` line per counter and one `"gauge"` line per
    /// gauge (sorted by key), so a log is self-contained.
    pub fn write_ndjson<W: Write>(&self, mut w: W) -> io::Result<()> {
        let Some(st) = self.state() else {
            return Ok(());
        };
        for e in &st.events {
            writeln!(w, "{}", e.to_json_line())?;
        }
        let mut seq = st.seq;
        for (k, v) in &st.counters {
            let mut line = String::new();
            line.push_str("{\"seq\":");
            line.push_str(&seq.to_string());
            line.push_str(",\"kind\":\"counter\",\"key\":");
            push_json_str(&mut line, k);
            line.push_str(",\"value\":");
            line.push_str(&v.to_string());
            line.push('}');
            writeln!(w, "{line}")?;
            seq += 1;
        }
        for (k, v) in &st.gauges {
            let mut line = String::new();
            line.push_str("{\"seq\":");
            line.push_str(&seq.to_string());
            line.push_str(",\"kind\":\"gauge\",\"key\":");
            push_json_str(&mut line, k);
            line.push_str(",\"value\":");
            push_json_f64(&mut line, *v);
            line.push('}');
            writeln!(w, "{line}")?;
            seq += 1;
        }
        Ok(())
    }

    /// Human summary: counters, gauges, and an event census by kind.
    pub fn summary_table(&self) -> String {
        let Some(st) = self.state() else {
            return String::new();
        };
        let mut out = String::new();
        if !st.counters.is_empty() {
            out.push_str("counter                                   value\n");
            for (k, v) in &st.counters {
                out.push_str(&format!("{k:<40}  {v}\n"));
            }
        }
        if !st.gauges.is_empty() {
            out.push_str("gauge                                     value\n");
            for (k, v) in &st.gauges {
                out.push_str(&format!("{k:<40}  {v}\n"));
            }
        }
        let mut census: BTreeMap<&str, usize> = BTreeMap::new();
        for e in &st.events {
            *census.entry(e.kind.as_str()).or_insert(0) += 1;
        }
        if !census.is_empty() {
            out.push_str("events\n");
            for (k, v) in census {
                out.push_str(&format!("  {k:<38}  {v}\n"));
            }
        }
        out
    }
}

/// RAII timer returned by [`Recorder::span`].
#[must_use = "a span measures until dropped; bind it with `let _span = …`"]
pub struct PhaseSpan {
    rec: Recorder,
    phase: String,
    start: Option<Instant>,
}

impl PhaseSpan {
    /// End the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = start.elapsed().as_nanos() as u64;
            self.rec.incr(&format!("time_ns.{}", self.phase), ns);
            self.rec
                .event("phase", &[("phase", self.phase.as_str().into()), ("ns", ns.into())]);
        }
    }
}

/// Aggregate telemetry snapshot of one sketch (or a family of
/// repetitions): maintained as plain fields inside the sketches and
/// harvested at finalize via [`Recorder::sketch`].
///
/// `updates` is only filled where the sketch already tracked it
/// (e.g. `F2HeavyHitter::items_seen`); `0` means "not tracked", not
/// "no updates". Counters are merged by addition when sketch replicas
/// merge, and reset to zero by wire-format reconstruction — they are
/// telemetry, not state, and never participate in merge compatibility
/// checks or `space_words` accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchStats {
    /// Items observed, where the sketch already counts them.
    pub updates: u64,
    /// Resident entries right now (buffer/candidate fill).
    pub fill: u64,
    /// Configured capacity of that buffer (0 = unbounded/fixed table).
    pub capacity: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Bulk shrink passes (heavy-hitter prunes).
    pub prunes: u64,
    /// Merge invocations absorbed into this state.
    pub merges: u64,
}

impl SketchStats {
    /// Accumulate another snapshot (for families of repetitions /
    /// levels): all fields add, including fill and capacity.
    pub fn absorb(&mut self, other: SketchStats) {
        self.updates += other.updates;
        self.fill += other.fill;
        self.capacity += other.capacity;
        self.evictions += other.evictions;
        self.prunes += other.prunes;
        self.merges += other.merges;
    }

    /// The change since `baseline`, saturating at zero per field — the
    /// delta-harvesting hook behind in-flight heartbeat snapshots.
    /// Monotone counters (updates, evictions, prunes, merges) yield the
    /// exact increment; `fill` can legitimately shrink between
    /// snapshots (prunes, evictions), in which case its delta
    /// saturates to zero and the shrink shows up in `prunes` instead.
    pub fn delta_since(&self, baseline: &SketchStats) -> SketchStats {
        SketchStats {
            updates: self.updates.saturating_sub(baseline.updates),
            fill: self.fill.saturating_sub(baseline.fill),
            capacity: self.capacity.saturating_sub(baseline.capacity),
            evictions: self.evictions.saturating_sub(baseline.evictions),
            prunes: self.prunes.saturating_sub(baseline.prunes),
            merges: self.merges.saturating_sub(baseline.merges),
        }
    }
}

/// Number of log₂ buckets in a [`Histogram`]: bucket 0 holds the value
/// `0`, bucket `i ∈ [1, 64]` holds values `v` with `2^(i-1) ≤ v < 2^i`
/// (i.e. `v.bits() == i`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A mergeable log₂-bucket histogram of `u64` samples.
///
/// The workhorse of in-flight streaming telemetry: batch sizes,
/// per-batch ingest nanoseconds, and per-heartbeat sketch fill /
/// eviction deltas are all recorded here. Design constraints:
///
/// * **Cheap on hot paths** — [`Histogram::record`] is a leading-zeros
///   instruction plus four adds; no allocation, no lock, no clock.
/// * **Mergeable** — [`Histogram::merge`] adds bucket counts and sums
///   and takes min/max envelopes, so stream-sharded replicas fold their
///   histograms exactly like the estimator state they ride on
///   (commutative, associative, `Histogram::new()` is the identity).
/// * **Wire-encodable** — `kcov-sketch`'s `WireEncode` ships histograms
///   with checkpointed sketch state (impl lives there to keep this
///   crate dependency-free).
///
/// Percentiles are resolved to the *upper bound* of the containing
/// bucket, clamped to the observed `[min, max]` envelope — an
/// overestimate by at most 2× by construction, which is the standard
/// precision contract for log-bucket telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (the merge identity).
    pub fn new() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index of `v`: 0 for 0, else `64 - v.leading_zeros()`
    /// (the bit length of `v`).
    pub fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The inclusive value range `[lo, hi]` of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket index {i} out of range");
        if i == 0 {
            (0, 0)
        } else if i == 64 {
            (1u64 << 63, u64::MAX)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether any sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) resolved to the upper bound of
    /// its bucket, clamped to the observed `[min, max]`. Returns `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based: ceil(q · count), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_bounds(i).1.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(bucket index, count)` in index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Rebuild a histogram from its parts (the inverse of the
    /// `histogram` event encoding and the wire format): sparse
    /// `(bucket, count)` pairs plus the `sum`/`min`/`max` envelope.
    /// Returns `None` on an out-of-range bucket index or an envelope
    /// inconsistent with the buckets (empty buckets with a non-zero
    /// envelope, or min > max).
    pub fn from_parts(buckets: &[(usize, u64)], sum: u64, min: u64, max: u64) -> Option<Histogram> {
        let mut h = Histogram::new();
        for &(i, c) in buckets {
            if i >= HISTOGRAM_BUCKETS {
                return None;
            }
            h.counts[i] += c;
            h.count += c;
        }
        if h.count == 0 {
            return (sum == 0 && max == 0).then_some(Histogram::new());
        }
        if min > max {
            return None;
        }
        h.sum = sum;
        h.min = min;
        h.max = max;
        Some(h)
    }
}

/// One node of an attribution tree (see [`Ledger`]).
///
/// The schema keeps every attribution on **leaves**: a node either has
/// children (a pure grouping node with every column zero of its own) or
/// is a leaf carrying resident words, heat counters and attributed
/// nanoseconds. Subtree totals are computed on demand, so the finalize
/// invariant "Σ leaf words == `space_words()`" is checked against
/// [`LedgerNode::total_words`]. Children keep insertion order (the order
/// the `space_ledger` implementations attribute them in), which makes
/// emission deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerNode {
    /// Resident 64-bit words attributed directly to this node (leaves
    /// only under the schema).
    pub words: u64,
    /// Heat: sketch-update operations absorbed by this structure.
    pub updates: u64,
    /// Heat: resident words written by those updates (e.g. one counter
    /// per CountSketch row per update).
    pub touched_words: u64,
    /// Wall-clock nanoseconds attributed to this structure (leaves only;
    /// see [`LedgerNode::apportion_ns`]). The only column that carries
    /// no determinism promise.
    pub ns: u64,
    children: Vec<(String, LedgerNode)>,
}

impl LedgerNode {
    /// An empty node.
    pub fn new() -> Self {
        LedgerNode::default()
    }

    /// Find-or-append the child `name` (insertion order is preserved,
    /// so repeated attribution — e.g. one call per repetition — lands
    /// in the same child).
    pub fn child(&mut self, name: &str) -> &mut LedgerNode {
        if let Some(i) = self.children.iter().position(|(n, _)| n == name) {
            return &mut self.children[i].1;
        }
        self.children.push((name.to_string(), LedgerNode::new()));
        &mut self.children.last_mut().expect("just pushed").1
    }

    /// Attribute `words` resident words to the leaf child `name`.
    pub fn leaf(&mut self, name: &str, words: usize) {
        self.child(name).words += words as u64;
    }

    /// Attribute heat to the child `name`: `updates` operations touching
    /// `touched_words` resident words.
    pub fn heat(&mut self, name: &str, updates: u64, touched_words: u64) {
        let c = self.child(name);
        c.updates += updates;
        c.touched_words += touched_words;
    }

    /// Move every child of `other` to the end of this node's children
    /// (used to attach a subtree whose ns was apportioned on its own).
    pub fn adopt(&mut self, other: LedgerNode) {
        self.children.extend(other.children);
    }

    /// The child `name`, if present.
    pub fn get(&self, name: &str) -> Option<&LedgerNode> {
        self.children.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Resolve a `/`-separated path relative to this node.
    pub fn at(&self, path: &str) -> Option<&LedgerNode> {
        let mut node = self;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            node = node.get(seg)?;
        }
        Some(node)
    }

    /// Children in insertion order.
    pub fn children(&self) -> impl Iterator<Item = (&str, &LedgerNode)> {
        self.children.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Whether this node carries its attribution directly (no children).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    fn total(&self, col: fn(&LedgerNode) -> u64) -> u64 {
        col(self) + self.children.iter().map(|(_, c)| c.total(col)).sum::<u64>()
    }

    /// Subtree total of resident words (own + all descendants).
    pub fn total_words(&self) -> u64 {
        self.total(|n| n.words)
    }

    /// Subtree total of update operations.
    pub fn total_updates(&self) -> u64 {
        self.total(|n| n.updates)
    }

    /// Subtree total of touched words.
    pub fn total_touched_words(&self) -> u64 {
        self.total(|n| n.touched_words)
    }

    /// Subtree total of attributed nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total(|n| n.ns)
    }

    /// Split one measured wall-clock bracket over this subtree's leaves
    /// by their own heat (`updates + touched_words`).
    ///
    /// This is the rule that buys per-sketch time attribution *without*
    /// per-sketch clock reads: the caller times a whole batched call
    /// (one monotonic read per chunk per lane) and this splits the
    /// interval over the structures that did the work. When the subtree
    /// carries no heat at all the split falls back to uniform weights,
    /// and a bare leaf takes the whole bracket. The split is exact: the
    /// cumulative-floor rule assigns `⌊ns·cum_i/W⌋ − ⌊ns·cum_{i−1}/W⌋`
    /// to leaf `i`, so assigned nanoseconds sum to `ns` with no
    /// remainder — parent == Σ children is an identity, not an
    /// approximation.
    pub fn apportion_ns(&mut self, ns: u64) {
        fn weigh(node: &LedgerNode, uniform: bool) -> u128 {
            if node.is_leaf() {
                if uniform {
                    1
                } else {
                    u128::from(node.updates) + u128::from(node.touched_words)
                }
            } else {
                node.children.iter().map(|(_, c)| weigh(c, uniform)).sum()
            }
        }
        /// `split = (ns, W, cumulative weight, ns assigned so far)`.
        fn assign(node: &mut LedgerNode, uniform: bool, split: &mut (u128, u128, u128, u128)) {
            if node.is_leaf() {
                let (ns, total, cum, prev) = split;
                *cum += weigh(node, uniform);
                let assigned = *ns * *cum / *total;
                node.ns += (assigned - *prev) as u64;
                *prev = assigned;
                return;
            }
            for (_, c) in &mut node.children {
                assign(c, uniform, split);
            }
        }
        let uniform = weigh(self, false) == 0;
        let total = weigh(self, uniform);
        assign(self, uniform, &mut (u128::from(ns), total, 0, 0));
    }
}

/// One flattened row of a [`Ledger`]: the `/`-joined path plus
/// **subtree totals** of every column (so a parent row always equals
/// the sum of its children's — the invariant `maxkcov prof` re-checks
/// when it reads a trace back).
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// `/`-joined path from the ledger root (the root itself is the
    /// bare root name).
    pub path: String,
    /// Subtree total resident words.
    pub words: u64,
    /// Subtree total update operations.
    pub updates: u64,
    /// Subtree total touched words.
    pub touched_words: u64,
    /// Subtree total attributed nanoseconds.
    pub ns: u64,
    /// Number of immediate children (0 = leaf).
    pub children: usize,
}

/// The column an attribution report ranks its leaves by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rank {
    /// Resident words (the space view).
    Words,
    /// Attributed nanoseconds (the time view).
    Ns,
}

/// An attribution ledger: a named tree of [`LedgerNode`]s built by the
/// `space_ledger` implementations across the estimator stack, rendered
/// as nested `"ledger"` NDJSON events, a sorted attribution report, and
/// Brendan-Gregg folded stacks for flamegraph tooling.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    name: String,
    /// The root node (attribution goes into its children).
    pub root: LedgerNode,
}

impl Ledger {
    /// An empty ledger whose root is named `name` (e.g. `"estimator"`).
    pub fn new(name: &str) -> Self {
        Ledger {
            name: name.to_string(),
            root: LedgerNode::new(),
        }
    }

    /// The root name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total resident words attributed anywhere in the tree.
    pub fn total_words(&self) -> u64 {
        self.root.total_words()
    }

    /// Total nanoseconds attributed anywhere in the tree.
    pub fn total_ns(&self) -> u64 {
        self.root.total_ns()
    }

    /// Walk the tree in preorder (parent before children, children in
    /// insertion order), calling `visit` with each node's path.
    fn walk(&self, visit: &mut dyn FnMut(String, &LedgerNode)) {
        fn go(path: String, node: &LedgerNode, visit: &mut dyn FnMut(String, &LedgerNode)) {
            visit(path.clone(), node);
            for (name, child) in node.children() {
                go(format!("{path}/{name}"), child, visit);
            }
        }
        go(self.name.clone(), &self.root, visit);
    }

    /// Flatten to rows in preorder, with subtree totals per row.
    pub fn rows(&self) -> Vec<LedgerRow> {
        let mut out = Vec::new();
        self.walk(&mut |path, node| {
            out.push(LedgerRow {
                path,
                words: node.total_words(),
                updates: node.total_updates(),
                touched_words: node.total_touched_words(),
                ns: node.total_ns(),
                children: node.children.len(),
            });
        });
        out
    }

    /// Schema violations: grouping nodes that carry direct attribution
    /// in any column (every word, heat counter and nanosecond must live
    /// on a leaf). Empty means the parent-sum invariant holds at every
    /// interior node by construction.
    pub fn audit(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |path, node| {
            let own = [node.words, node.updates, node.touched_words, node.ns];
            if !node.is_leaf() && own.iter().any(|&v| v != 0) {
                out.push(format!(
                    "{path}: grouping node carries direct attribution \
                     ({} words, {} updates, {} touched, {} ns)",
                    own[0], own[1], own[2], own[3]
                ));
            }
        });
        out
    }

    /// Emit one `"ledger"` event per node (preorder, subtree totals) —
    /// the nested-NDJSON surfacing of the tree. Every field but `ns` is
    /// a pure function of the stream; the wall-clock value rides in the
    /// field named exactly `ns`, which every determinism-diffing
    /// normalizer in the test suites strips.
    pub fn emit(&self, rec: &Recorder) {
        if !rec.is_enabled() {
            return;
        }
        for row in self.rows() {
            rec.event(
                "ledger",
                &[
                    ("path", row.path.as_str().into()),
                    ("words", row.words.into()),
                    ("updates", row.updates.into()),
                    ("touched_words", row.touched_words.into()),
                    ("ns", row.ns.into()),
                    ("children", (row.children as u64).into()),
                ],
            );
        }
    }

    /// Brendan-Gregg folded stacks of the `ns` column (see
    /// [`render_folded`]).
    pub fn folded(&self) -> String {
        render_folded(&self.rows())
    }
}

/// Render Brendan-Gregg folded stacks from flattened ledger rows — one
/// line per leaf, `root;seg;…;leaf <ns>` — directly consumable by
/// standard flamegraph tooling (`flamegraph.pl`, inferno, speedscope).
pub fn render_folded(rows: &[LedgerRow]) -> String {
    let mut out = String::new();
    for row in rows.iter().filter(|r| r.children == 0) {
        out.push_str(&format!("{} {}\n", row.path.replace('/', ";"), row.ns));
    }
    out
}

/// Render an attribution report from flattened ledger rows: leaves
/// ranked by `rank` descending (ties by path), with words, updates,
/// updates-per-word traffic density, ns, and the share of the root's
/// total in the ranked column. `top == 0` means all leaves. Takes rows
/// so that live trees ([`Ledger::rows`]) and rows rebuilt from
/// `"ledger"` NDJSON events render the same way.
pub fn render_ledger_report(rows: &[LedgerRow], top: usize, rank: Rank) -> String {
    let (key, unit): (fn(&LedgerRow) -> u64, &str) = match rank {
        Rank::Words => (|r| r.words, "words"),
        Rank::Ns => (|r| r.ns, "ns"),
    };
    let total: u64 = rows.first().map_or(0, key);
    let mut leaves: Vec<&LedgerRow> = rows.iter().filter(|r| r.children == 0).collect();
    leaves.sort_by(|a, b| key(b).cmp(&key(a)).then_with(|| a.path.cmp(&b.path)));
    let shown = if top == 0 { leaves.len() } else { top.min(leaves.len()) };
    let width = leaves
        .iter()
        .take(shown)
        .map(|r| r.path.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<width$}  {:>10}  {:>12}  {:>9}  {:>14}  {:>6}\n",
        "path",
        "words",
        "updates",
        "upd/word",
        "ns",
        format!("%{unit}")
    ));
    for row in leaves.iter().take(shown) {
        let pct = if total > 0 {
            key(row) as f64 / total as f64 * 100.0
        } else {
            0.0
        };
        let density = if row.words > 0 {
            format!("{:.2}", row.updates as f64 / row.words as f64)
        } else if row.updates > 0 {
            "inf".to_string()
        } else {
            "0.00".to_string()
        };
        out.push_str(&format!(
            "{:<width$}  {:>10}  {:>12}  {:>9}  {:>14}  {:>5.1}%\n",
            row.path, row.words, row.updates, density, row.ns, pct
        ));
    }
    if shown < leaves.len() {
        let rest: u64 = leaves[shown..].iter().map(|r| key(r)).sum();
        out.push_str(&format!(
            "… {} more leaves ({rest} {unit})\n",
            leaves.len() - shown
        ));
    }
    out.push_str(&format!("total: {total} {unit}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        rec.incr("a", 3);
        rec.gauge("g", 1.5);
        rec.event("kind", &[("x", 1u64.into())]);
        let _span = rec.span("phase");
        drop(_span);
        assert!(!rec.is_enabled());
        assert!(rec.counters().is_empty());
        assert!(rec.gauges().is_empty());
        assert!(rec.events().is_empty());
        let mut buf = Vec::new();
        rec.write_ndjson(&mut buf).unwrap();
        assert!(buf.is_empty());
        assert!(rec.summary_table().is_empty());
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let rec = Recorder::enabled();
        rec.incr("edges", 10);
        rec.incr("edges", 5);
        rec.gauge("estimate", 1.0);
        rec.gauge("estimate", 2.0);
        assert_eq!(rec.counters(), vec![("edges".to_string(), 15)]);
        assert_eq!(rec.gauges(), vec![("estimate".to_string(), 2.0)]);
    }

    #[test]
    fn clones_share_one_sink() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.incr("x", 1);
        rec.incr("x", 1);
        assert_eq!(rec.counters(), vec![("x".to_string(), 2)]);
    }

    #[test]
    fn span_times_into_counter_and_event() {
        let rec = Recorder::enabled();
        {
            let _span = rec.span("ingest");
        }
        let counters = rec.counters();
        assert_eq!(counters.len(), 1);
        assert!(counters[0].0 == "time_ns.ingest");
        let phases = rec.events_of("phase");
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].str_field("phase"), Some("ingest"));
        assert!(phases[0].u64_field("ns").is_some());
    }

    #[test]
    fn events_are_sequenced_in_emission_order() {
        let rec = Recorder::enabled();
        rec.event("a", &[]);
        rec.event("b", &[("k", "v".into())]);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].seq, events[0].kind.as_str()), (0, "a"));
        assert_eq!((events[1].seq, events[1].kind.as_str()), (1, "b"));
    }

    #[test]
    fn ndjson_lines_parse_and_round_trip() {
        let rec = Recorder::enabled();
        rec.event(
            "lane",
            &[
                ("lane", 3usize.into()),
                ("estimate", 12.5f64.into()),
                ("winner", "LargeSet".into()),
                ("qualifying", true.into()),
                ("delta", Value::I64(-4)),
            ],
        );
        rec.incr("edges", 7);
        rec.gauge("alpha", 4.0);
        let mut buf = Vec::new();
        rec.write_ndjson(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let parsed = json::Json::parse(line).expect("valid JSON line");
            assert!(parsed.get("kind").is_some(), "{line}");
            assert!(parsed.get("seq").is_some(), "{line}");
        }
        let lane = json::Json::parse(lines[0]).unwrap();
        assert_eq!(lane.get("lane").and_then(json::Json::as_f64), Some(3.0));
        assert_eq!(lane.get("estimate").and_then(json::Json::as_f64), Some(12.5));
        assert_eq!(
            lane.get("winner").and_then(json::Json::as_str),
            Some("LargeSet")
        );
        assert_eq!(lane.get("delta").and_then(json::Json::as_f64), Some(-4.0));
    }

    #[test]
    fn string_escaping_survives_the_parser() {
        let rec = Recorder::enabled();
        rec.event("e", &[("s", "a\"b\\c\nd\te\u{1}".into())]);
        let mut buf = Vec::new();
        rec.write_ndjson(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = json::Json::parse(text.trim()).unwrap();
        assert_eq!(
            parsed.get("s").and_then(json::Json::as_str),
            Some("a\"b\\c\nd\te\u{1}")
        );
    }

    #[test]
    fn sketch_stats_absorb_adds_everything() {
        let mut a = SketchStats {
            updates: 1,
            fill: 2,
            capacity: 3,
            evictions: 4,
            prunes: 5,
            merges: 6,
        };
        a.absorb(SketchStats {
            updates: 10,
            fill: 20,
            capacity: 30,
            evictions: 40,
            prunes: 50,
            merges: 60,
        });
        assert_eq!(
            a,
            SketchStats {
                updates: 11,
                fill: 22,
                capacity: 33,
                evictions: 44,
                prunes: 55,
                merges: 66,
            }
        );
    }

    #[test]
    fn sketch_event_carries_all_stat_fields() {
        let rec = Recorder::enabled();
        rec.sketch(
            "lane0.large_set",
            "f2hh",
            SketchStats {
                updates: 9,
                fill: 4,
                capacity: 8,
                evictions: 1,
                prunes: 2,
                merges: 3,
            },
        );
        let events = rec.events_of("sketch");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.str_field("scope"), Some("lane0.large_set"));
        assert_eq!(e.str_field("sketch"), Some("f2hh"));
        assert_eq!(e.u64_field("updates"), Some(9));
        assert_eq!(e.u64_field("fill"), Some(4));
        assert_eq!(e.u64_field("capacity"), Some(8));
        assert_eq!(e.u64_field("evictions"), Some(1));
        assert_eq!(e.u64_field("prunes"), Some(2));
        assert_eq!(e.u64_field("merges"), Some(3));
    }

    #[test]
    fn summary_table_lists_counters_gauges_and_census() {
        let rec = Recorder::enabled();
        rec.incr("edges", 3);
        rec.gauge("estimate", 7.5);
        rec.event("lane", &[]);
        rec.event("lane", &[]);
        let table = rec.summary_table();
        assert!(table.contains("edges"), "{table}");
        assert!(table.contains("estimate"), "{table}");
        assert!(table.contains("lane"), "{table}");
        assert!(table.contains('2'), "{table}");
    }

    #[test]
    fn histogram_bucket_boundaries_are_powers_of_two() {
        // Bucket 0 is exactly {0}; bucket i covers [2^(i-1), 2^i - 1].
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(Histogram::bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(Histogram::bucket_index(hi), i, "hi of bucket {i}");
            if lo > 0 {
                assert_eq!(Histogram::bucket_index(lo - 1), i - 1);
            }
        }
    }

    #[test]
    fn histogram_records_envelope_and_quantiles() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        for v in [0u64, 1, 5, 9, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1115);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean() - 1115.0 / 6.0).abs() < 1e-12);
        // Quantiles resolve to bucket upper bounds, clamped to [min, max]:
        // p0 → bucket of the smallest sample; p100 → exactly max.
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(1000));
        // Median (rank 3 of 6) lands in bucket 3 ([4,7]) → upper bound 7.
        assert_eq!(h.quantile(0.5), Some(7));
        // A log-bucket quantile never undershoots the true value by
        // construction: check against the sorted samples.
        let sorted = [0u64, 1, 5, 9, 100, 1000];
        for (idx, &v) in sorted.iter().enumerate() {
            let q = (idx + 1) as f64 / sorted.len() as f64;
            assert!(h.quantile(q).unwrap() >= v, "q={q} under {v}");
        }
    }

    #[test]
    fn histogram_merge_is_additive_and_has_identity() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [3u64, 17, 0, 255] {
            a.record(v);
            whole.record(v);
        }
        for v in [1u64, 1, 4096] {
            b.record(v);
            whole.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, whole);
        // Commutative.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba, whole);
        // Identity.
        let mut id = a.clone();
        id.merge(&Histogram::new());
        assert_eq!(id, a);
        let mut id2 = Histogram::new();
        id2.merge(&a);
        assert_eq!(id2, a);
    }

    #[test]
    fn histogram_event_round_trips_through_from_parts() {
        let mut h = Histogram::new();
        for v in [0u64, 2, 2, 9, 70000] {
            h.record(v);
        }
        let rec = Recorder::enabled();
        rec.histogram("batch_edges", &h);
        let events = rec.events_of("histogram");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.str_field("name"), Some("batch_edges"));
        assert_eq!(e.u64_field("count"), Some(5));
        assert_eq!(e.u64_field("sum"), Some(70013));
        assert_eq!(e.u64_field("min"), Some(0));
        assert_eq!(e.u64_field("max"), Some(70000));
        // Rebuild from the sparse b<i> fields.
        let buckets: Vec<(usize, u64)> = e
            .fields
            .iter()
            .filter_map(|(k, v)| {
                let i: usize = k.strip_prefix('b')?.parse().ok()?;
                match v {
                    Value::U64(c) => Some((i, *c)),
                    _ => None,
                }
            })
            .collect();
        let back = Histogram::from_parts(
            &buckets,
            e.u64_field("sum").unwrap(),
            e.u64_field("min").unwrap(),
            e.u64_field("max").unwrap(),
        )
        .expect("reconstructible");
        assert_eq!(back, h);
    }

    #[test]
    fn histogram_from_parts_rejects_inconsistent_inputs() {
        // Out-of-range bucket index.
        assert!(Histogram::from_parts(&[(65, 1)], 1, 1, 1).is_none());
        // min > max with samples present.
        assert!(Histogram::from_parts(&[(1, 1)], 1, 5, 2).is_none());
        // Empty buckets demand a zero envelope.
        assert!(Histogram::from_parts(&[], 3, 0, 0).is_none());
        assert_eq!(Histogram::from_parts(&[], 0, 0, 0), Some(Histogram::new()));
    }

    #[test]
    fn non_finite_gauges_render_as_null() {
        let rec = Recorder::enabled();
        rec.gauge("bad", f64::NAN);
        let mut buf = Vec::new();
        rec.write_ndjson(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = json::Json::parse(text.trim()).unwrap();
        assert!(matches!(parsed.get("value"), Some(json::Json::Null)));
    }


    /// Words and heat on the space leaves, plus a measured `ns` on every
    /// leaf (including the word-free `tracker`).
    fn sample_ledger() -> Ledger {
        let mut ledger = Ledger::new("estimator");
        let lane = ledger.root.child("lane0");
        let ls = lane.child("large_set");
        let cs = ls.child("countsketch");
        cs.leaf("rows", 100);
        cs.leaf("hashes", 20);
        cs.heat("rows", 50, 150);
        cs.child("rows").ns = 400;
        cs.child("hashes").ns = 100;
        ls.child("tracker").ns = 60;
        lane.child("reducer").leaf("hash", 4);
        lane.child("reducer").child("hash").ns = 40;
        ledger.root.child("fingerprints").leaf("set_base", 8);
        ledger.root.child("fingerprints").child("set_base").ns = 100;
        ledger
    }

    #[test]
    fn ledger_child_is_find_or_append_and_totals_sum() {
        let ledger = sample_ledger();
        assert_eq!(ledger.root.total_words(), 132);
        assert_eq!(ledger.root.total_ns(), 700);
        let lane = ledger.root.get("lane0").unwrap();
        assert_eq!(lane.total_words(), 124);
        assert_eq!(lane.total_updates(), 50);
        assert_eq!(lane.total_touched_words(), 150);
        // Path lookup resolves nested components.
        let rows = ledger.root.at("lane0/large_set/countsketch/rows").unwrap();
        assert_eq!(rows.words, 100);
        assert!(rows.is_leaf());
        assert_eq!(ledger.root.at("lane0/large_set/countsketch").unwrap().total_ns(), 500);
        assert!(ledger.root.at("lane0/missing").is_none());
        // Repeated attribution accumulates in the same child.
        let mut node = LedgerNode::new();
        node.leaf("values", 3);
        node.leaf("values", 4);
        assert_eq!(node.get("values").unwrap().words, 7);
        assert_eq!(node.children().count(), 1);
        // Adopted children keep their order after the existing ones.
        let mut other = LedgerNode::new();
        other.leaf("b", 1);
        other.leaf("a", 2);
        node.adopt(other);
        let names: Vec<&str> = node.children().map(|(n, _)| n).collect();
        assert_eq!(names, ["values", "b", "a"]);
    }

    #[test]
    fn ledger_rows_are_preorder_with_subtree_totals() {
        let ledger = sample_ledger();
        let rows = ledger.rows();
        assert_eq!(rows[0].path, "estimator");
        assert_eq!((rows[0].words, rows[0].ns), (132, 700));
        assert!(rows[0].children > 0);
        // Parent-sum invariant: every interior row's columns equal the
        // sums of its immediate children's.
        for parent in rows.iter().filter(|r| r.children > 0) {
            let prefix = format!("{}/", parent.path);
            let kids: Vec<&LedgerRow> = rows
                .iter()
                .filter(|r| {
                    r.path.strip_prefix(&prefix).is_some_and(|rest| !rest.contains('/'))
                })
                .collect();
            let sum = |f: fn(&LedgerRow) -> u64| kids.iter().map(|r| f(r)).sum::<u64>();
            assert_eq!(parent.words, sum(|r| r.words), "at {}", parent.path);
            assert_eq!(parent.ns, sum(|r| r.ns), "at {}", parent.path);
        }
        // Leaf rows carry their own attribution verbatim.
        let cs_rows = rows.iter().find(|r| r.path.ends_with("countsketch/rows")).unwrap();
        assert_eq!(
            (cs_rows.words, cs_rows.updates, cs_rows.touched_words, cs_rows.ns),
            (100, 50, 150, 400)
        );
        assert_eq!(cs_rows.children, 0);
    }

    #[test]
    fn ledger_audit_flags_attribution_on_grouping_nodes() {
        for bump in [
            (|n: &mut LedgerNode| n.words += 5) as fn(&mut LedgerNode),
            |n| n.updates += 5,
            |n| n.touched_words += 5,
            |n| n.ns += 5,
        ] {
            let mut ledger = sample_ledger();
            assert!(ledger.audit().is_empty(), "{:?}", ledger.audit());
            bump(ledger.root.child("lane0"));
            let violations = ledger.audit();
            assert_eq!(violations.len(), 1);
            assert!(violations[0].contains("estimator/lane0"), "{violations:?}");
        }
    }

    #[test]
    fn ledger_emits_one_event_per_node_and_folds_leaves() {
        let ledger = sample_ledger();
        let rec = Recorder::enabled();
        ledger.emit(&rec);
        let events = rec.events_of("ledger");
        assert_eq!(events.len(), ledger.rows().len());
        assert_eq!(events[0].str_field("path"), Some("estimator"));
        assert_eq!(events[0].u64_field("words"), Some(132));
        assert_eq!(events[0].u64_field("ns"), Some(700));
        for e in &events {
            for key in ["path", "words", "updates", "touched_words", "ns", "children"] {
                assert!(e.field(key).is_some(), "missing {key}: {e:?}");
            }
        }
        // Disabled recorder: emit is a no-op.
        let off = Recorder::disabled();
        ledger.emit(&off);
        assert!(off.events().is_empty());
        // Folded stacks: leaves only, `/` → `;`, one trailing count.
        let folded = ledger.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "estimator;lane0;large_set;countsketch;rows 400",
                "estimator;lane0;large_set;countsketch;hashes 100",
                "estimator;lane0;large_set;tracker 60",
                "estimator;lane0;reducer;hash 40",
                "estimator;fingerprints;set_base 100",
            ]
        );
    }

    #[test]
    fn ledger_report_ranks_leaves_by_either_column() {
        let ledger = sample_ledger();
        // By words: the report ranks leaves by words and carries the total.
        let report = render_ledger_report(&ledger.rows(), 2, Rank::Words);
        let first_data_line = report.lines().nth(1).unwrap();
        assert!(first_data_line.contains("countsketch/rows"), "{report}");
        assert!(report.contains("total: 132 words"), "{report}");
        assert!(report.contains("more leaves"), "{report}");
        let full = render_ledger_report(&ledger.rows(), 0, Rank::Words);
        assert!(!full.contains("more leaves"), "{full}");
        // By ns: the same leaves, ranked by time, totalled in ns.
        let report = render_ledger_report(&ledger.rows(), 2, Rank::Ns);
        let first_data_line = report.lines().nth(1).unwrap();
        assert!(first_data_line.contains("countsketch"), "{report}");
        assert!(report.contains("total: 700 ns"), "{report}");
        assert!(report.contains("more leaves"), "{report}");
    }

    /// The lane0 space subtree of [`sample_ledger`], without ns.
    fn sample_lane() -> LedgerNode {
        let mut lane = LedgerNode::new();
        let cs = lane.child("large_set").child("countsketch");
        cs.leaf("rows", 100);
        cs.leaf("hashes", 20);
        cs.heat("rows", 50, 150);
        lane.child("reducer").leaf("hash", 4);
        lane
    }

    #[test]
    fn apportion_ns_splits_exactly_by_weight() {
        // Heat 50+150 on `rows`, 0 on `hashes`/`hash` — all weight lands
        // on one leaf.
        let mut lane = sample_lane();
        lane.apportion_ns(1000);
        assert_eq!(lane.total_ns(), 1000, "apportionment must be exact");
        assert_eq!(
            lane.at("large_set/countsketch/rows").unwrap().ns,
            1000,
            "all heat is on rows"
        );
        // The split only writes leaves: the shape and the space columns
        // are untouched, and grouping nodes stay clean.
        assert!(lane.at("large_set/countsketch/hashes").is_some_and(|n| n.ns == 0));
        assert_eq!(lane.total_words(), 124);
        let mut ledger = Ledger::new("estimator");
        *ledger.root.child("lane0") = lane;
        assert!(ledger.audit().is_empty(), "{:?}", ledger.audit());
    }

    #[test]
    fn apportion_ns_is_exact_under_awkward_remainders() {
        let mut space = LedgerNode::new();
        space.leaf("a", 1);
        space.leaf("b", 1);
        space.leaf("c", 1);
        space.heat("a", 1, 0);
        space.heat("b", 1, 0);
        space.heat("c", 1, 0);
        // 1000 into three equal weights: 333/334/333-style exact split.
        space.apportion_ns(1000);
        let shares: Vec<u64> = ["a", "b", "c"]
            .iter()
            .map(|n| space.get(n).unwrap().ns)
            .collect();
        assert_eq!(shares.iter().sum::<u64>(), 1000);
        assert!(shares.iter().all(|&s| (332..=334).contains(&s)), "{shares:?}");
    }

    #[test]
    fn apportion_ns_falls_back_to_uniform_without_heat() {
        let mut space = LedgerNode::new();
        space.leaf("a", 10);
        space.leaf("b", 20);
        space.apportion_ns(100);
        assert_eq!(space.get("a").unwrap().ns, 50);
        assert_eq!(space.get("b").unwrap().ns, 50);
        // A bare leaf takes the whole bracket.
        let mut leaf_only = LedgerNode::new();
        leaf_only.apportion_ns(42);
        assert_eq!(leaf_only.ns, 42);
    }
}
