//! Latency histograms, measurement windows and the wall-clock span log.
//!
//! Every end-to-end figure is a median over fixed wall-clock windows of
//! the measured phase: a burst of interference from outside the process
//! moves one or two windows, not the reported value.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Sub-buckets per power of two (64: buckets are at most 1/64 wide).
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Octaves covered: values up to 2^(OCTAVES + SUB_BITS - 1) ns (~1.2 days).
const OCTAVES: usize = 42;
const BUCKETS: usize = OCTAVES * SUB;

/// Log-linear histogram of nanosecond samples. Quantiles interpolate
/// linearly inside the bucket that holds the rank, so a reported value is
/// a measured position, not a bucket bound.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let idx = (shift as usize + 1) * SUB + ((v >> shift) as usize - SUB);
    idx.min(BUCKETS - 1)
}

/// `(lower bound, width)` of bucket `idx`.
fn bounds(idx: usize) -> (f64, f64) {
    let octave = idx / SUB;
    if octave == 0 {
        return (idx as f64, 1.0);
    }
    let width = (1u64 << (octave - 1)) as f64;
    ((SUB + idx % SUB) as f64 * width, width)
}

impl Hist {
    /// Record one sample.
    #[inline]
    pub fn add(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile (`0 < q < 1`) in ns, 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q * self.n as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lo, width) = bounds(i);
                return lo + width * ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
            }
            below += c;
        }
        let (lo, width) = bounds(BUCKETS - 1);
        lo + width
    }

    /// Sparse text form `idx:count,...` for the agents' result lines.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                if !out.is_empty() {
                    out.push(',');
                }
                write!(out, "{i}:{c}").expect("writing to a String cannot fail");
            }
        }
        out
    }

    /// Inverse of [`Hist::encode`].
    pub fn decode(s: &str) -> Result<Hist, String> {
        let mut h = Hist::default();
        for pair in s.split(',').filter(|p| !p.is_empty()) {
            let (i, c) = pair.split_once(':').ok_or("histogram: bad pair")?;
            let i: usize = i.parse().map_err(|e| format!("histogram index: {e}"))?;
            let c: u64 = c.parse().map_err(|e| format!("histogram count: {e}"))?;
            if i >= BUCKETS {
                return Err(format!("histogram index {i} out of range"));
            }
            h.counts[i] += c;
            h.n += c;
        }
        Ok(h)
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload leaves idle).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A measured phase: an unrecorded warm-up, then `windows` windows of
/// `window` each.
#[derive(Clone, Copy)]
pub struct Clock {
    /// When recording starts (end of the warm-up).
    pub measure_start: Instant,
    /// When the phase ends.
    pub end: Instant,
    window_ns: u64,
    windows: usize,
}

impl Clock {
    /// A phase starting now: `warm` of warm-up, then `measure` split into
    /// windows of about `window`.
    pub fn start(warm: Duration, measure: Duration, window: Duration) -> Clock {
        let windows = ((measure.as_secs_f64() / window.as_secs_f64()).round() as usize).max(1);
        let window_ns = (measure.as_nanos() as u64 / windows as u64).max(1);
        let measure_start = Instant::now() + warm;
        Clock {
            measure_start,
            end: measure_start + Duration::from_nanos(window_ns * windows as u64),
            window_ns,
            windows,
        }
    }

    /// Number of windows.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Window length in seconds.
    pub fn window_secs(&self) -> f64 {
        self.window_ns as f64 / 1e9
    }

    /// The window an op that completed at `t` belongs to, `None` during
    /// warm-up.
    #[inline]
    pub fn window_of(&self, t: Instant) -> Option<usize> {
        let since = t.checked_duration_since(self.measure_start)?;
        Some(((since.as_nanos() as u64 / self.window_ns) as usize).min(self.windows - 1))
    }
}

/// One client's per-window op latencies.
#[derive(Clone)]
pub struct Windows {
    /// One histogram per window.
    pub hists: Vec<Hist>,
}

impl Windows {
    /// Empty windows for `clock`.
    pub fn new(clock: &Clock) -> Windows {
        Windows {
            hists: vec![Hist::default(); clock.windows()],
        }
    }

    /// Record an op that took `ns` and completed at `end`. Returns whether
    /// it fell in the measured part of the phase.
    #[inline]
    pub fn record(&mut self, clock: &Clock, end: Instant, ns: u64) -> bool {
        match clock.window_of(end) {
            Some(w) => {
                self.hists[w].add(ns);
                true
            }
            None => false,
        }
    }

    /// All clients' windows (same clock) folded into one.
    pub fn merged<'a>(mut all: impl Iterator<Item = &'a Windows>) -> Windows {
        let mut w = all.next().expect("at least one client").clone();
        for other in all {
            w.merge(other);
        }
        w
    }

    /// Fold another client's windows (same clock) into these.
    pub fn merge(&mut self, other: &Windows) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// Ops recorded across all windows.
    pub fn ops(&self) -> u64 {
        self.hists.iter().map(Hist::count).sum()
    }

    /// Median-over-windows summary.
    pub fn summary(&self, window_secs: f64) -> PhaseSummary {
        let per = |f: &dyn Fn(&Hist) -> f64| -> f64 {
            median(&self.hists.iter().map(f).collect::<Vec<_>>())
        };
        PhaseSummary {
            ops_per_s: per(&|h| h.count() as f64 / window_secs),
            p50_ns: per(&|h| h.quantile(0.50)),
            p99_ns: per(&|h| h.quantile(0.99)),
            samples: self.ops(),
            windows: self.hists.len(),
        }
    }
}

/// End-to-end figures of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSummary {
    /// Median over windows of completed ops per wall second.
    pub ops_per_s: f64,
    /// Median over windows of the per-window p50 op latency.
    pub p50_ns: f64,
    /// Median over windows of the per-window p99 op latency.
    pub p99_ns: f64,
    /// Latency samples behind the figures.
    pub samples: u64,
    /// Windows behind the medians.
    pub windows: usize,
}

/// Wall spans one client may hold in a traced phase: bounds the phase's
/// memory and the span file it writes.
pub const SPAN_CAP: usize = 1 << 17;

/// What one client measured in one phase.
pub struct PhaseLog {
    /// Per-window op latencies.
    pub windows: Windows,
    /// Wall spans, when the phase records them.
    pub spans: Option<SpanLog>,
    /// Measured ops.
    pub ops: u64,
    /// All ops issued, warm-up included.
    pub issued: u64,
    /// Virtual time the measured ops took on this client.
    pub vt_ns: u64,
}

impl PhaseLog {
    /// An empty log for `client` (spans bounded by `span_cap`, if any).
    pub fn new(clock: &Clock, client: usize, span_cap: Option<usize>) -> PhaseLog {
        PhaseLog {
            windows: Windows::new(clock),
            spans: span_cap.map(|cap| SpanLog::new(clock.measure_start, client as u64 + 1, cap)),
            ops: 0,
            issued: 0,
            vt_ns: 0,
        }
    }

    /// True once this log's span buffer is full.
    pub fn spans_full(&self) -> bool {
        self.spans.as_ref().is_some_and(SpanLog::full)
    }
}

/// Every client's spans of one phase, as slices.
pub fn span_slices(logs: &[PhaseLog]) -> Vec<&[WallSpan]> {
    logs.iter()
        .filter_map(|l| l.spans.as_ref().map(|s| s.spans.as_slice()))
        .collect()
}

/// Every client's spans of one phase, concatenated.
pub fn all_spans(logs: Vec<PhaseLog>) -> Vec<WallSpan> {
    logs.into_iter()
        .filter_map(|l| l.spans)
        .flat_map(|s| s.spans)
        .collect()
}

/// One wall-clock span the benchmark records around a public call it
/// makes (traced runs only).
#[derive(Debug, Clone, Copy)]
pub struct WallSpan {
    /// The public call (`push`, `get`, `fetch_add`, `try_reclaim`, ...).
    pub name: &'static str,
    /// Locale the call targets (the key's owner, the peer rank, or 0).
    pub locale: u16,
    /// Start, ns since the log's base instant.
    pub start_ns: u64,
    /// End, ns since the log's base instant.
    pub end_ns: u64,
    /// Op id of the enclosing span, 0 for a client's top-level call.
    pub parent: u64,
    /// This span's op id (`client << 40 | sequence`, never 0).
    pub op: u64,
}

/// In-memory span log of one client, bounded by `cap`.
pub struct SpanLog {
    base: Instant,
    client: u64,
    next: u64,
    cap: usize,
    /// Spans recorded so far.
    pub spans: Vec<WallSpan>,
}

impl SpanLog {
    /// An empty log for `client`, timestamps relative to `base`.
    pub fn new(base: Instant, client: u64, cap: usize) -> SpanLog {
        SpanLog {
            base,
            client,
            next: 0,
            cap,
            spans: Vec::with_capacity(cap),
        }
    }

    /// True once the log holds `cap` spans.
    pub fn full(&self) -> bool {
        self.spans.len() >= self.cap
    }

    /// Record a top-level call; returns its op id.
    #[inline]
    pub fn record(&mut self, name: &'static str, locale: u16, start: Instant, end: Instant) -> u64 {
        self.next += 1;
        let op = (self.client << 40) | self.next;
        if self.spans.len() < self.cap {
            self.spans.push(WallSpan {
                name,
                locale,
                start_ns: start.saturating_duration_since(self.base).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.base).as_nanos() as u64,
                parent: 0,
                op,
            });
        }
        op
    }

    /// Per-call duration histogram of the spans named `name` (all spans
    /// when `locale` is `None`, else those targeting `locale`).
    pub fn durations(logs: &[&[WallSpan]], name: Option<&str>, locale: Option<u16>) -> Hist {
        let mut h = Hist::default();
        for s in logs.iter().flat_map(|l| l.iter()) {
            if name.is_none_or(|n| n == s.name) && locale.is_none_or(|l| l == s.locale) {
                h.add(s.end_ns - s.start_ns);
            }
        }
        h
    }
}

/// Write spans as JSON lines (one object per span) to `path`.
pub fn write_spans(path: &Path, spans: &[WallSpan]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\": \"{}\", \"locale\": {}, \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {}, \"op\": {}}}",
            s.name, s.locale, s.start_ns, s.end_ns, s.parent, s.op
        )?;
    }
    out.flush()
}

/// This process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fast, well-mixed 64-bit hash (SplitMix64 finalizer) for checksums.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_bounds_agree() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 65_432, 1 << 30] {
            let (lo, w) = bounds(index(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + w,
                "{v}: [{lo}, {})",
                lo + w
            );
        }
    }

    #[test]
    fn quantiles_track_samples() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.add(v);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 5000.0).abs() < 100.0, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 9900.0).abs() < 200.0, "{p99}");
        assert_eq!(Hist::decode(&h.encode()).unwrap().quantile(0.5), p50);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
