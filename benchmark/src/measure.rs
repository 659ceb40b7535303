//! Measurement primitives owned by the benchmark: the seeded generator,
//! exact latency samples, in-memory spans and the few process facts
//! (peak RSS, filesystem type) a run reports.

use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// SplitMix64: every key stream and op mix of a run derives from the
/// `--seed` argument through this generator, so a seed fixes the inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift, `n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// Durations below this many nanoseconds are counted per nanosecond;
/// longer ones are kept raw (as `u32` nanoseconds, so up to 4.29 s).
/// Either way every sample is kept at the clock's full resolution, so
/// percentiles are exact.
const FINE_NS: usize = 1 << 14;

/// Exact latency samples in nanoseconds.
#[derive(Clone, Default)]
pub struct Samples {
    fine: Vec<u32>,
    coarse: Vec<u32>,
    n: u64,
}

/// One exact percentile with the evidence behind it.
#[derive(Clone, Copy, Default)]
pub struct Pct {
    pub ns: u64,
    /// Samples the percentile was taken over.
    pub n: u64,
    /// Samples strictly above its rank.
    pub beyond: u64,
}

impl Pct {
    pub fn us(&self) -> f64 {
        self.ns as f64 / 1e3
    }
}

impl Samples {
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        if (ns as usize) < FINE_NS {
            if self.fine.is_empty() {
                self.fine = vec![0; FINE_NS];
            }
            self.fine[ns as usize] += 1;
        } else {
            self.coarse.push(ns.min(u32::MAX as u64) as u32);
        }
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Samples) {
        if !other.fine.is_empty() {
            if self.fine.is_empty() {
                self.fine = vec![0; FINE_NS];
            }
            for (a, b) in self.fine.iter_mut().zip(&other.fine) {
                *a += b;
            }
        }
        self.coarse.extend_from_slice(&other.coarse);
        self.n += other.n;
    }

    pub fn sum_ns(&self) -> u128 {
        let fine: u128 = (self.fine.iter().enumerate())
            .map(|(ns, &c)| ns as u128 * c as u128)
            .sum();
        fine + self.coarse.iter().map(|&v| v as u128).sum::<u128>()
    }

    /// Nearest-rank percentile `q` in `(0, 1]`; `None` without samples.
    pub fn pct(&mut self, q: f64) -> Option<Pct> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        let mut value = None;
        for (ns, &c) in self.fine.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                value = Some(ns as u64);
                break;
            }
        }
        let ns = match value {
            Some(ns) => ns,
            None => {
                self.coarse.sort_unstable();
                u64::from(self.coarse[(rank - seen - 1) as usize])
            }
        };
        Some(Pct {
            ns,
            n: self.n,
            beyond: self.n - rank,
        })
    }
}

/// The run's time origin; span times are nanoseconds since it.
pub fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// A small per-thread id for spans.
pub fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// One timed call into a layer.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
    /// The client request id (client spans only).
    pub req: Option<u64>,
}

/// Upper bound on spans one log keeps, so a long traced run stays small.
const SPAN_CAP: usize = 50_000;

/// Spans kept in memory until the run ends.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanLog {
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant, req: Option<u64>) {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        let o = origin();
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(o).as_nanos() as u64,
            end_ns: end.saturating_duration_since(o).as_nanos() as u64,
            thread: thread_id(),
            req,
        });
    }

    pub fn append(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
        self.dropped += other.dropped;
    }

    /// Write the spans as JSON lines, ordered by start time.
    pub fn write_jsonl(&mut self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        self.spans.sort_by_key(|s| (s.start_ns, s.thread));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}",
                s.name, s.start_ns, s.end_ns, s.thread
            )?;
            match s.req {
                Some(r) => writeln!(out, ",\"req\":{r}}}")?,
                None => writeln!(out, "}}")?,
            }
        }
        out.flush()
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> Result<String, String> {
    let path = path
        .canonicalize()
        .map_err(|e| format!("canonicalize {}: {e}", path.display()))?;
    let info = std::fs::read_to_string("/proc/self/mountinfo")
        .map_err(|e| format!("read /proc/self/mountinfo: {e}"))?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
        .ok_or_else(|| format!("no mount holds {}", path.display()))
}

/// Median of `values` (which must be non-empty).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(ns: &[u64]) -> Samples {
        let mut s = Samples::default();
        for &v in ns {
            s.record(Duration::from_nanos(v));
        }
        s
    }

    #[test]
    fn percentiles_are_nearest_rank_across_fine_and_coarse_samples() {
        // 1..=100 ns are counted per nanosecond; 100 µs .. 10 ms are kept raw.
        let mut values: Vec<u64> = (1..=100).collect();
        values.extend((1..=100).map(|i| i * 100_000));
        let mut s = samples(&values);
        assert_eq!(s.len(), 200);
        let p50 = s.pct(0.5).unwrap();
        assert_eq!((p50.ns, p50.n, p50.beyond), (100, 200, 100));
        let p99 = s.pct(0.99).unwrap();
        assert_eq!((p99.ns, p99.beyond), (9_800_000, 2));
        assert_eq!(s.pct(1.0).unwrap().ns, 10_000_000);
        assert!(Samples::default().pct(0.5).is_none());
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (a, b) = ([5, 70_000, 3], [90_000, 12, 16_384]);
        let mut merged = samples(&a);
        merged.merge(&samples(&b));
        let mut whole = samples(&[a, b].concat());
        for q in [0.1, 0.5, 0.9, 1.0] {
            assert_eq!(merged.pct(q).unwrap().ns, whole.pct(q).unwrap().ns);
        }
        assert_eq!(merged.sum_ns(), whole.sum_ns());
    }

    #[test]
    fn a_seed_fixes_the_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.below(4096)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert!(draw(7, 1).iter().all(|&k| k < 4096));
    }
}
