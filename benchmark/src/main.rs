//! The repository benchmark. One command runs one workload against the
//! public layer APIs, checks the run's output, and prints every metric by
//! name and unit; the last stdout line is one JSON object:
//!
//! ```text
//! stm-repo-bench --workload <rbtree-mem|svc-spread> --seed <n> \
//!                --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` makes the traced run: it times every call into each layer
//! from this program, prints the per-layer metrics, and writes its spans
//! to `.bench_work/spans-<workload>.jsonl`. A failed correctness check
//! exits with code 1 and prints no metrics. See `README.md`.

mod measure;
mod rbtree;
mod service;
mod store;

use measure::{median, Pct, Samples, SpanLog};
use std::path::{Path, PathBuf};
use std::time::Duration;
use tinystm::StatsSnapshot;

const USAGE: &str = "usage: stm-repo-bench --workload <rbtree-mem|svc-spread> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Scratch space for WAL directories and span files, relative to the
/// directory the benchmark runs from.
const WORK_DIR: &str = ".bench_work";

/// An untraced run sets up and measures this many times, each time from
/// scratch, for an equal share of `--seconds`. `setup_s` is the median
/// set-up time; each measured share is split into sub-windows, and the
/// throughputs and latency percentiles are medians over the sub-windows of
/// all repetitions, so neither one stalled second nor one unlucky set-up
/// moves a figure much.
pub const REPS: usize = 5;

/// Extra set-ups an untraced run times (and tears down) before the
/// repetitions, so that `setup_s` is the median of `REPS + EXTRA_SETUPS`
/// samples.
pub const EXTRA_SETUPS: usize = 100;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    RbtreeMem,
    SvcSpread,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "rbtree-mem" => Some(Workload::RbtreeMem),
            "svc-spread" => Some(Workload::SvcSpread),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RbtreeMem => "rbtree-mem",
            Workload::SvcSpread => "svc-spread",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
                "--seconds" => {
                    let s = value.parse::<u64>().map_err(|e| bad(&e.to_string()))?;
                    if !(1..=600).contains(&s) {
                        return Err(bad("must be 1..=600"));
                    }
                    seconds = Some(Duration::from_secs(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }

    /// Where this run keeps its WAL directories.
    pub fn work_dir(&self) -> PathBuf {
        Path::new(WORK_DIR).join(format!("{}-{}", self.workload.name(), std::process::id()))
    }

    pub fn span_file(&self) -> PathBuf {
        Path::new(WORK_DIR).join(format!("spans-{}.jsonl", self.workload.name()))
    }
}

/// The run's metrics, printed one per line as they are added and as the
/// final JSON object at the end.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: &str) {
        println!("  {name:<40} {value:>14.4} {unit:<10} {note}");
        self.metrics.push((name, value, unit));
    }

    /// A percentile metric in µs, with its sample count and the number of
    /// samples beyond it, which must be at least ten.
    pub fn pct_us(
        &mut self,
        name: &'static str,
        samples: &mut Samples,
        q: f64,
    ) -> Result<Pct, String> {
        let p = samples
            .pct(q)
            .ok_or_else(|| format!("{name}: no samples"))?;
        if p.beyond < 10 {
            return Err(format!(
                "{name}: only {} of {} samples beyond the percentile (need 10)",
                p.beyond, p.n
            ));
        }
        self.metric(
            name,
            p.us(),
            "us",
            &format!("n={} beyond={}", p.n, p.beyond),
        );
        Ok(p)
    }

    /// The median over sub-windows of each one's `q` percentile, in µs.
    /// Every sub-window needs ten samples beyond its percentile.
    pub fn windowed_pct_us(
        &mut self,
        name: &'static str,
        windows: &mut [Samples],
        q: f64,
    ) -> Result<f64, String> {
        let (mut values, mut n, mut fewest) = (Vec::new(), 0, u64::MAX);
        for w in windows.iter_mut() {
            let p = w
                .pct(q)
                .ok_or_else(|| format!("{name}: a sub-window has no samples"))?;
            n += p.n;
            fewest = fewest.min(p.beyond);
            values.push(p.us());
        }
        if fewest < 10 {
            return Err(format!(
                "{name}: a sub-window has only {fewest} samples beyond the percentile (need 10)"
            ));
        }
        let v = median(&mut values);
        let note = format!(
            "median of {} sub-window(s); n={n}, fewest beyond in one={fewest}",
            windows.len()
        );
        self.metric(name, v, "us", &note);
        Ok(v)
    }

    /// Print, without reporting it as a metric, the p99 over all of the
    /// sub-windows' samples: the tail the bounded metrics leave out.
    pub fn tail_note(&self, label: &str, windows: &[Samples]) {
        let mut all = Samples::default();
        for w in windows {
            all.merge(w);
        }
        note_pct(
            label,
            &mut all,
            0.99,
            "(not a metric: too unsteady to bound)",
        );
    }

    /// The median over sub-windows of `counts[i] / secs[i]`.
    pub fn windowed_rate(&mut self, name: &'static str, counts: &[u64], secs: &[f64], note: &str) {
        let mut rates: Vec<f64> = counts
            .iter()
            .zip(secs)
            .map(|(&c, &s)| c as f64 / s)
            .collect();
        let v = median(&mut rates);
        let note = format!("median of {} sub-windows; {note}", rates.len());
        self.metric(name, v, "1/s", &note);
    }

    /// Print the error ratio (refused or failed ÷ attempted).
    pub fn error_ratio(&self) {
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<40} {ratio:>14.4} {:<10} failed={} attempted={}",
            "error_ratio", "ratio", self.failed, self.attempted
        );
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `tinystm` per-layer metrics, from a `Stm::stats()` delta taken
/// over the measured window. `gets` and `puts` are the client operations
/// the window issued.
pub fn core_metrics(report: &mut Report, d: &StatsSnapshot, gets: u64, puts: u64) {
    use tinystm::stm_api::AbortReason as R;
    let reason = |r: R| d.aborts_by_reason[r.index()] as f64;
    let commits = d.commits.max(1) as f64;
    let per_k = |n: f64| n * 1e3 / commits;
    let frac = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
    report.metric(
        "core.abort_ratio",
        frac(d.aborts as f64, d.commits + d.aborts),
        "ratio",
        &format!("commits={} aborts={}", d.commits, d.aborts),
    );
    for (name, r) in [
        ("core.aborts_read_locked_per_kcommit", R::ReadLocked),
        ("core.aborts_write_locked_per_kcommit", R::WriteLocked),
        ("core.aborts_validation_per_kcommit", R::ValidationFailed),
        ("core.aborts_extend_per_kcommit", R::ExtendFailed),
    ] {
        report.metric(name, per_k(reason(r)), "1/kcommit", "");
    }
    report.metric(
        "core.clock_conflicts_per_kcommit",
        per_k(d.clock_conflicts as f64),
        "1/kcommit",
        "",
    );
    report.metric(
        "core.reads_per_commit",
        d.reads as f64 / commits,
        "count",
        "",
    );
    report.metric(
        "core.wasted_reads_frac",
        frac(d.wasted_reads as f64, d.reads),
        "ratio",
        "",
    );
    report.metric(
        "core.extensions_per_commit",
        d.extensions as f64 / commits,
        "count",
        "",
    );
    report.metric(
        "core.commit_validation_skip_frac",
        frac(d.commit_validation_skips as f64, d.commits - d.ro_commits),
        "ratio",
        "of update commits",
    );
    report.metric(
        "core.val_locks_skipped_frac",
        d.validation_skip_fraction(),
        "ratio",
        "",
    );
    report.metric(
        "core.read_locked_per_get",
        frac(reason(R::ReadLocked), gets),
        "ratio",
        &format!("gets={gets}"),
    );
    report.metric(
        "core.write_locked_per_put",
        frac(reason(R::WriteLocked), puts),
        "ratio",
        &format!("puts={puts}"),
    );
}

/// Print the `q` percentile of `samples` in µs as context, not as a
/// metric, and return it.
pub fn note_pct(label: &str, samples: &mut Samples, q: f64, note: &str) -> Pct {
    let p = samples.pct(q).unwrap_or_default();
    let us = p.us();
    println!(
        "  {label:<40} {us:>14.4} us         n={} beyond={} {note}",
        p.n, p.beyond
    );
    p
}

/// Per-layer metrics a workload does not exercise are reported as 0 so
/// every traced run prints the same names.
pub fn absent(report: &mut Report, names: &[(&'static str, &'static str)]) {
    for &(name, unit) in names {
        report.metric(name, 0.0, unit, "(layer not exercised by this workload)");
    }
}

/// Write the traced run's spans.
pub fn write_spans(args: &Args, spans: &mut SpanLog) -> Result<(), String> {
    let path = args.span_file();
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "spans: {} written to {} ({} dropped over the in-memory cap)",
        spans.spans.len(),
        path.display(),
        spans.dropped
    );
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let mut report = Report::default();
    match args.workload {
        Workload::RbtreeMem => rbtree::run(args, &mut report)?,
        Workload::SvcSpread => service::run(args, &mut report)?,
    }
    report.error_ratio();
    if !args.trace {
        report.metric("peak_rss_mb", measure::peak_rss_mb()?, "MB", "VmHWM");
    }
    if let Some((name, v, _)) = report.metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{name} is {v}, not a number"));
    }
    Ok(report)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    measure::origin();
    println!(
        "workload={} seed={} seconds={} trace={} cores={}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match run(&args) {
        Ok(report) => println!("{}", report.json()),
        Err(e) => {
            eprintln!("FAILED ({} seed {}): {e}", args.workload.name(), args.seed);
            std::process::exit(1);
        }
    }
}
