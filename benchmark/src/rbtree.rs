//! `rbtree-mem`: the paper's Fig. 2 point. `tinystm` write-back at
//! `StmConfig::default()` drives a `stm_structures::RbTree` of 4096 keys
//! over a key range of 8192; two closed-loop threads issue 20% updates
//! (alternating insert and remove of the thread's own key, so the size
//! stays constant) and 80% lookups. No WAL or service code runs.

use crate::measure::{median, Rng, Samples, SpanLog};
use crate::{absent, core_metrics, write_spans, Args, Report, EXTRA_SETUPS, REPS};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use stm_structures::RbTree;
use tinystm::{StatsSnapshot, Stm, StmConfig};

const INITIAL: u64 = 4096;
const RANGE: u64 = 8192;
const UPDATE_PCT: u64 = 20;
const THREADS: usize = 2;
/// With tracing off one operation in this many is timed, so the clock
/// reads cost the measured throughput almost nothing.
const TIME_EVERY: u64 = 64;
/// In the traced run every operation is timed; one in this many also
/// keeps a span.
const SPAN_EVERY: u64 = 64;
const WARMUP: Duration = Duration::from_millis(300);
/// Sub-windows per measured repetition.
const SUBS: usize = 2;

/// Build the tree and insert `INITIAL` distinct keys drawn from `rng`.
fn setup(rng: &mut Rng) -> Result<RbTree<Stm>, String> {
    let stm = Stm::new(StmConfig::default()).map_err(|e| format!("Stm::new: {e}"))?;
    let tree = RbTree::new(stm);
    let mut n = 0;
    while n < INITIAL {
        let k = 1 + rng.below(RANGE);
        if tree.put(k, k).is_none() {
            n += 1;
        }
    }
    Ok(tree)
}

/// The tree calls, by index into `Worker::lat`: `put` is the insert,
/// `delete` the remove and `get` the lookup.
const PUT: usize = 0;
const DELETE: usize = 1;
const GET: usize = 2;
const SPAN_NAMES: [&str; 3] = ["rbtree.put", "rbtree.delete", "rbtree.get"];

/// One thread's counts, per sub-window of the measured window.
struct Worker {
    ops: Vec<u64>,
    puts: Vec<u64>,
    /// Latencies per call kind, then per sub-window.
    lat: [Vec<Samples>; 3],
    /// Keys this thread inserted minus keys it removed.
    net: i64,
    /// Removes of this thread's own key that found it gone.
    lost_removes: u64,
    spans: SpanLog,
}

impl Worker {
    fn new(subs: usize) -> Worker {
        Worker {
            ops: vec![0; subs],
            puts: vec![0; subs],
            lat: std::array::from_fn(|_| (0..subs).map(|_| Samples::default()).collect()),
            net: 0,
            lost_removes: 0,
            spans: SpanLog::default(),
        }
    }
}

struct Phase {
    /// Measured length of each sub-window.
    secs: Vec<f64>,
    stats: StatsSnapshot,
    workers: Vec<Worker>,
}

impl Phase {
    /// Per-sub-window totals over the threads.
    fn per_window(&self, f: impl Fn(&Worker) -> &Vec<u64>) -> Vec<u64> {
        (0..self.secs.len())
            .map(|i| self.workers.iter().map(|w| f(w)[i]).sum())
            .collect()
    }

    fn total(&self, f: impl Fn(&Worker) -> &Vec<u64>) -> u64 {
        self.per_window(f).iter().sum()
    }

    fn tps(&self) -> f64 {
        self.total(|w| &w.ops) as f64 / self.secs.iter().sum::<f64>()
    }

    /// Per-sub-window latency samples merged over the threads.
    fn lat(&self, f: impl Fn(&Worker) -> &Vec<Samples>) -> Vec<Samples> {
        (0..self.secs.len())
            .map(|i| {
                let mut all = Samples::default();
                for w in &self.workers {
                    all.merge(&f(w)[i]);
                }
                all
            })
            .collect()
    }
}

/// `window` holds 0 outside the measured window and `i + 1` during its
/// sub-window `i`.
fn worker(
    tree: &RbTree<Stm>,
    rng: &mut Rng,
    subs: usize,
    traced: bool,
    window: &AtomicUsize,
    stop: &AtomicBool,
) -> Worker {
    let mut w = Worker::new(subs);
    let mut mine: Option<u64> = None;
    let mut seq = 0u64;
    while !stop.load(Ordering::Relaxed) {
        seq += 1;
        let slot = window.load(Ordering::Relaxed).checked_sub(1);
        let timed = slot.is_some() && (traced || seq.is_multiple_of(TIME_EVERY));
        let update = rng.below(100) < UPDATE_PCT;
        let start = timed.then(Instant::now);
        let op = match (update, mine.take()) {
            (true, Some(k)) => {
                match tree.delete(k) {
                    Some(_) => w.net -= 1,
                    None => w.lost_removes += 1,
                }
                DELETE
            }
            (true, None) => {
                let k = 1 + rng.below(RANGE);
                if tree.put(k, seq).is_none() {
                    mine = Some(k);
                    w.net += 1;
                }
                PUT
            }
            (false, k) => {
                mine = k;
                black_box(tree.get(1 + rng.below(RANGE)));
                GET
            }
        };
        let Some(i) = slot else { continue };
        if let Some(start) = start {
            let end = Instant::now();
            w.lat[op][i].record(end - start);
            if traced && seq.is_multiple_of(SPAN_EVERY) {
                w.spans.push(SPAN_NAMES[op], start, end, Some(seq));
            }
        }
        w.ops[i] += 1;
        w.puts[i] += u64::from(op == PUT);
    }
    // Remove the insert still in flight, so the tree ends at its
    // initial size.
    if let Some(k) = mine {
        match tree.delete(k) {
            Some(_) => w.net -= 1,
            None => w.lost_removes += 1,
        }
    }
    w
}

/// Run the two threads (streams `seed`) for a warm-up and then `window`
/// split into `subs` sub-windows, and check the tree afterwards.
fn measure(
    tree: &RbTree<Stm>,
    seed: u64,
    window: Duration,
    subs: usize,
    traced: bool,
) -> Result<Phase, String> {
    let slot = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let phase = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (slot, stop) = (&slot, &stop);
                s.spawn(move || {
                    let mut rng = Rng::new(seed, 1 + t as u64);
                    worker(tree, &mut rng, subs, traced, slot, stop)
                })
            })
            .collect();
        std::thread::sleep(WARMUP);
        let before = tree.tm().stats().totals;
        let mut secs = Vec::with_capacity(subs);
        let mut t = Instant::now();
        for i in 0..subs {
            slot.store(i + 1, Ordering::Relaxed);
            std::thread::sleep(window / subs as u32);
            let now = Instant::now();
            secs.push((now - t).as_secs_f64());
            t = now;
        }
        slot.store(0, Ordering::Relaxed);
        let stats = tree.tm().stats().totals.since(&before);
        stop.store(true, Ordering::Relaxed);
        let workers = handles
            .into_iter()
            .map(|h| h.join().expect("rbtree worker panicked"))
            .collect();
        Phase {
            secs,
            stats,
            workers,
        }
    });
    check(tree, &phase)?;
    Ok(phase)
}

/// The tree keeps its red-black invariants, every thread found its own
/// inserted keys when it removed them, and, with each thread's last
/// insert removed, the size is back to the initial size.
fn check(tree: &RbTree<Stm>, phase: &Phase) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| tree.check_invariants()))
        .map_err(|_| "RbTree::check_invariants failed".to_string())?;
    let lost: u64 = phase.workers.iter().map(|w| w.lost_removes).sum();
    if lost != 0 {
        return Err(format!(
            "{lost} removes of a thread's own key found it gone"
        ));
    }
    let net: i64 = phase.workers.iter().map(|w| w.net).sum();
    let size = tree.keys().len() as u64;
    if size != INITIAL || net != 0 {
        return Err(format!(
            "tree size {size} with net inserts {net}, expected {INITIAL} and 0"
        ));
    }
    println!("check: red-black invariants hold, size {size} after in-flight inserts removed");
    Ok(())
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    if !args.trace {
        let (mut setup_s, mut counts, mut puts, mut secs) = (vec![], vec![], vec![], vec![]);
        let (mut put_lat, mut get_lat) = (vec![], vec![]);
        for i in 0..EXTRA_SETUPS as u64 {
            let mut rng = Rng::new(args.seed, 10 * (REPS as u64 + i));
            let t0 = Instant::now();
            let tree = setup(&mut rng)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            drop(tree);
        }
        for rep in 0..REPS as u64 {
            let mut rng = Rng::new(args.seed, 10 * rep);
            let t0 = Instant::now();
            let tree = setup(&mut rng)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            let p = measure(&tree, rng.next(), args.seconds / REPS as u32, SUBS, false)?;
            report.attempted += p.total(|w| &w.ops);
            counts.extend(p.per_window(|w| &w.ops));
            puts.extend(p.per_window(|w| &w.puts));
            secs.extend(&p.secs);
            put_lat.extend(p.lat(|w| &w.lat[PUT]));
            get_lat.extend(p.lat(|w| &w.lat[GET]));
        }
        let note = format!("median of {} set-ups", setup_s.len());
        report.metric("setup_s", median(&mut setup_s), "s", &note);
        let threads = format!("{THREADS} threads");
        report.windowed_rate("commit_tps", &counts, &secs, &threads);
        report.windowed_rate("acked_puts_per_s", &puts, &secs, "RbTree::put (inserts)");
        let note = format!("one call in {TIME_EVERY} timed");
        println!("  (put = RbTree::put, the insert; get = RbTree::get; {note})");
        report.windowed_pct_us("put_p50_us", &mut put_lat, 0.50)?;
        report.windowed_pct_us("put_p90_us", &mut put_lat, 0.90)?;
        report.windowed_pct_us("get_p50_us", &mut get_lat, 0.50)?;
        report.windowed_pct_us("get_p90_us", &mut get_lat, 0.90)?;
        report.tail_note("put_p99_us", &put_lat);
        report.tail_note("get_p99_us", &get_lat);
        return Ok(());
    }

    // Traced run: the same window split between an untraced and a traced
    // phase, so the tracing overhead is measured, not assumed.
    let mut rng = Rng::new(args.seed, 0);
    let tree = setup(&mut rng)?;
    let half = args.seconds / 2;
    let plain = measure(&tree, rng.next(), half, 1, false)?;
    let mut p = measure(&tree, rng.next(), half, 1, true)?;
    report.attempted = plain.total(|w| &w.ops) + p.total(|w| &w.ops);
    let mut ops = Samples::default();
    for op in [PUT, DELETE, GET] {
        for s in &p.lat(|w| &w.lat[op]) {
            ops.merge(s);
        }
    }
    let mut spans = SpanLog::default();
    for w in &mut p.workers {
        spans.append(std::mem::take(&mut w.spans));
    }
    let gets = p.lat(|w| &w.lat[GET]).iter().map(Samples::len).sum();
    core_metrics(report, &p.stats, gets, p.total(|w| &w.puts));
    report.pct_us("structures.op_p50_us", &mut ops, 0.50)?;
    report.pct_us("structures.op_p99_us", &mut ops, 0.99)?;
    report.metric(
        "engine.shard_commit_skew",
        1.0,
        "ratio",
        "(one backend instance)",
    );
    absent(
        report,
        &[
            ("durable.put_p50_us", "us"),
            ("service.handoff_p50_us", "us"),
            ("service.overloaded", "count"),
            ("wal.mean_batch", "count"),
            ("wal.syncs_per_put", "ratio"),
            ("wal.bytes_per_put", "B"),
            ("wal.append_p50_us", "us"),
            ("wal.sync_p50_us", "us"),
            ("wal.sync_p99_us", "us"),
            ("wal.sync_busy_frac", "ratio"),
            ("wal.checkpoint_p50_ms", "ms"),
            ("wal.checkpoints", "count"),
        ],
    );
    report.metric(
        "trace.overhead_frac",
        1.0 - p.tps() / plain.tps(),
        "ratio",
        &format!(
            "commit_tps {:.0} untraced, {:.0} traced",
            plain.tps(),
            p.tps()
        ),
    );
    write_spans(args, &mut spans)
}
