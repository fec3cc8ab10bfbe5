//! Shared pieces: the metric list a workload returns, percentiles,
//! process memory, the host fingerprint, and the in-memory span tracer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use s1lisp_trace::json::Json;

/// One reported metric: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations whose answer was wrong, missing or refused.
    pub failed: u64,
    /// False when a check outside the per-op answers failed (a
    /// reference disagreed with the interpreter, a count that must
    /// repeat did not).
    pub checks_ok: bool,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Extra fields for the result record (digests, cross-checks).
    pub record: Vec<(String, Json)>,
    /// Spans of the traced window, written out when the run ends.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            checks_ok: true,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.record.push((key.to_string(), value));
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated percentile (`p` in 0..=100) of a sample.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    assert!(!sample.is_empty(), "percentile of an empty sample");
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Correct ops over attempted ops.
pub fn success_ratio(ops: u64, failed: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        (ops - failed) as f64 / ops as f64
    }
}

pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 50.0)
}

pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// Least-squares slope of `y` against `x` (0 with fewer than two
/// distinct `x`).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Set-ups per run; the median time is reported.
pub const SETUPS: usize = 9;

/// The median of `reps` timings of `f`, in seconds, and the last
/// result.  Set-up is repeated so one slow start does not decide it.
pub fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Which host produced a result: CPU model, `nproc`, `rustc -V`, kernel.
pub fn host_fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    Json::Obj(vec![
        ("cpu_model".to_string(), Json::str(cpu)),
        ("nproc".to_string(), Json::uint(nproc as u64)),
        ("rustc".to_string(), Json::str(rustc)),
        ("kernel".to_string(), Json::str(kernel)),
    ])
}

/// FNV-1a over a sequence of strings, for input and artifact digests.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for b in p.bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// One recorded span.  Spans of one operation share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.  Off, every call is a branch and
/// nothing is stored.  Spans nest through an open-span stack: the
/// innermost open span is the parent of the next one opened.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between operations.  A traced run
    /// traces every other round, so traced and untraced ops interleave
    /// and host drift cancels out of the tracing overhead.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "set_on inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `op` names the operation it belongs to (ignored
    /// for nested spans, which inherit their root's).
    pub fn begin(&mut self, name: impl Into<String>, op: u64) {
        if !self.on {
            return;
        }
        if self.open.is_empty() {
            self.op = op;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let ix = self.open.pop().expect("end without begin");
        self.spans[ix].end_ns = now;
    }

    /// Records an already measured child interval under the innermost
    /// open span (used for server-side times reported in a response).
    pub fn record(&mut self, name: impl Into<String>, start_ns: u64, dur_ns: u64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    pub fn elapsed_ns(&self) -> u64 {
        self.now_ns()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Summed self time per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += t as f64 / 1e6;
    }
    out
}

/// Mean self time per root span (`bench.op`) not covered by any child:
/// the part of an operation the trace does not attribute to a layer.
pub fn unattributed_ms(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let roots: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.parent.is_none() && s.name == "bench.op")
        .map(|(_, t)| *t as f64 / 1e6)
        .collect();
    mean(&roots)
}

/// Traced throughput over untraced throughput, from per-op latencies
/// flagged traced or not: the mean untraced latency over the mean traced
/// one.
pub fn trace_overhead_ratio(latencies_ms: &[f64], traced: &[bool]) -> f64 {
    let of = |want: bool| {
        let v: Vec<f64> = latencies_ms
            .iter()
            .zip(traced)
            .filter(|(_, &t)| t == want)
            .map(|(l, _)| *l)
            .collect();
        mean(&v)
    };
    of(false) / of(true)
}

/// The spans as a JSON array (`[{name, start_ns, end_ns, parent, op}]`).
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".to_string(), Json::str(s.name.clone())),
                    ("start_ns".to_string(), Json::uint(s.start_ns)),
                    ("end_ns".to_string(), Json::uint(s.end_ns)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::uint(p as u64)),
                    ),
                    ("op".to_string(), Json::uint(s.op)),
                ])
            })
            .collect(),
    )
}
