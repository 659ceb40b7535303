//! `svc-spread`: an `StmService` over `DurableEngine::new_grouped` with two
//! shards and one store per shard, with the library's default group-commit
//! and service settings. Two closed-loop clients, each its own tenant, put
//! uniformly random keys out of 4096 per tenant; client 0 checkpoints
//! every `CHECKPOINT_EVERY` of its own acked puts. After the window each
//! tenant's keys are read back through `StmService::get` (the workload's
//! get latencies) and checked against the last acked value.
//!
//! The untraced run stores the WAL in a `MemStore` per shard: the same
//! service, group-commit and append path without fsync, because fsync
//! latency on a shared virtual disk drifts too much between runs to bound
//! (figures in `README.md`). The traced run adds the same traffic over a
//! `FileStore` per shard on disk, which gives the fsync ladder.
//!
//! Every phase ends with the same check: after `stop`, the state read
//! with `read_all` must equal, key for key, the state that
//! `DurableEngine::recover_grouped` rebuilds from the same stores.

use crate::measure::{fs_type, median, Rng, Samples, SpanLog};
use crate::store::{StoreTrace, TimedStore};
use crate::{absent, core_metrics, note_pct, write_spans, Args, Report, EXTRA_SETUPS, REPS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stm_engine::{DurableEngine, ServiceConfig, StmService};
use stm_wal::{FileStore, GroupCommitConfig, MemStore, WalStore};
use tinystm::{StatsSnapshot, Stm, StmConfig};

const SHARDS: usize = 2;
/// Closed-loop clients, each its own tenant.
const CLIENTS: usize = 2;
const KEYS_PER_TENANT: u64 = 4096;
const CHECKPOINT_EVERY: u64 = 1024;
/// Sub-windows per measured repetition.
const SUBS: usize = 2;
const WARMUP: Duration = Duration::from_millis(300);
/// A read-back get takes well under a microsecond, so one read-back
/// sample is this many consecutive gets timed together and divided; two
/// clock reads per get would be much of what is measured.
const GET_BLOCK: u64 = 64;
/// Passes of the read-back over a tenant's keys, so that each client's
/// read-back holds `READBACK_PASSES * KEYS_PER_TENANT / GET_BLOCK`
/// samples, enough for ten beyond its p90.
const READBACK_PASSES: u64 = 8;
const READBACK_STRIDE: u64 = 2731;

/// What the clients call: the service, or (the durable rung of the
/// traced run) the engine directly.
enum Front {
    Service(StmService<Stm>),
    Direct(Arc<DurableEngine<Stm>>),
}

struct Stack {
    /// `Some`: one `FileStore` per shard under this directory. `None`: one
    /// `MemStore` per shard, the same path without fsync.
    dir: Option<PathBuf>,
    /// The unwrapped store of each shard.
    base: Vec<Arc<dyn WalStore>>,
    front: Front,
    trace: Option<Arc<StoreTrace>>,
}

impl Stack {
    /// Fresh stores (under `dir` on disk, else in memory), an engine over
    /// them, and (unless `direct`) a service in front. `traced` wraps each
    /// store in the timing wrapper.
    fn build(dir: Option<&Path>, traced: bool, direct: bool) -> Result<Stack, String> {
        let base = match dir {
            Some(dir) => {
                let _ = std::fs::remove_dir_all(dir);
                (0..SHARDS)
                    .map(|i| open_store(dir, i).map(|s| s as Arc<dyn WalStore>))
                    .collect::<Result<Vec<_>, String>>()?
            }
            None => (0..SHARDS)
                .map(|_| MemStore::healthy() as Arc<dyn WalStore>)
                .collect(),
        };
        let trace = traced.then(|| Arc::new(StoreTrace::default()));
        let stores = base
            .iter()
            .map(|s| match &trace {
                Some(t) => Arc::new(TimedStore::new(Arc::clone(s), Arc::clone(t))),
                None => Arc::clone(s),
            })
            .collect();
        let engine = DurableEngine::<Stm>::new_grouped(
            SHARDS,
            n_keys(),
            &StmConfig::default(),
            stores,
            GroupCommitConfig::default(),
        )
        .map_err(|e| format!("DurableEngine::new_grouped: {e}"))?;
        let engine = Arc::new(engine);
        let front = if direct {
            Front::Direct(engine)
        } else {
            let config = ServiceConfig::default()
                .with_tenants(CLIENTS)
                .with_keys_per_tenant(KEYS_PER_TENANT as usize);
            Front::Service(StmService::start(engine, config))
        };
        Ok(Stack {
            dir: dir.map(Path::to_path_buf),
            base,
            front,
            trace,
        })
    }

    fn engine(&self) -> &DurableEngine<Stm> {
        match &self.front {
            Front::Service(s) => s.engine(),
            Front::Direct(e) => e,
        }
    }

    fn put(&self, tenant: usize, key: u64, value: u64) -> Result<(), String> {
        match &self.front {
            Front::Service(s) => s.put(tenant, key, value).map_err(|e| e.to_string()),
            Front::Direct(e) => e
                .put(tenant as u64 * KEYS_PER_TENANT + key, value)
                .map_err(|e| e.to_string()),
        }
    }

    fn get(&self, tenant: usize, key: u64) -> Result<u64, String> {
        match &self.front {
            Front::Service(s) => s.get(tenant, key).map_err(|e| e.to_string()),
            Front::Direct(e) => Ok(e.get(tenant as u64 * KEYS_PER_TENANT + key)),
        }
    }

    fn checkpoint(&self) -> Result<(), String> {
        match &self.front {
            Front::Service(s) => s.checkpoint(),
            Front::Direct(e) => e.checkpoint(),
        }
        .map_err(|e| e.to_string())
    }

    /// Per-shard backend statistics.
    fn shard_stats(&self) -> Vec<StatsSnapshot> {
        let engine = self.engine().engine();
        (0..SHARDS)
            .map(|i| engine.shard(i).stats().totals)
            .collect()
    }

    /// Stop the front, record the in-memory state, recover a second
    /// engine from the same stores and require the two states to match.
    /// Returns the recorded state.
    fn stop_and_recover(self) -> Result<BTreeMap<u64, u64>, String> {
        if let Front::Service(s) = &self.front {
            s.stop();
        }
        let recorded = self.engine().read_all();
        let Stack {
            dir, base, front, ..
        } = self;
        drop(front);
        let stores = match &dir {
            Some(dir) => (0..SHARDS)
                .map(|i| open_store(dir, i).map(|s| s as Arc<dyn WalStore>))
                .collect::<Result<Vec<_>, String>>()?,
            None => base
                .iter()
                .map(|s| MemStore::rebooted(s.as_ref()) as Arc<dyn WalStore>)
                .collect(),
        };
        let (recovered, _) = DurableEngine::<Stm>::recover_grouped(
            SHARDS,
            n_keys(),
            &StmConfig::default(),
            stores,
            GroupCommitConfig::default(),
        )
        .map_err(|e| format!("DurableEngine::recover_grouped: {e}"))?;
        let recovered = recovered.read_all();
        if let Some((k, v)) = recorded.iter().find(|&(k, v)| recovered.get(k) != Some(v)) {
            return Err(format!(
                "recovered state differs from memory at key {k}: memory {v}, WAL {:?}",
                recovered.get(k)
            ));
        }
        if recorded.len() != recovered.len() {
            return Err("recovered state has a different key set".into());
        }
        if let Some(dir) = dir {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
        Ok(recorded)
    }
}

fn n_keys() -> usize {
    CLIENTS * KEYS_PER_TENANT as usize
}

fn open_store(dir: &Path, shard: usize) -> Result<Arc<FileStore>, String> {
    let path = dir.join(format!("shard-{shard}"));
    FileStore::open(&path).map_err(|e| format!("FileStore::open {}: {e}", path.display()))
}

/// What one client thread saw.
#[derive(Default)]
struct Client {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    acked_puts: u64,
    /// Latencies of the window's puts, per sub-window.
    put_lat: Vec<Samples>,
    /// Per-get latencies of the read-back after the window, one sample per
    /// block of `GET_BLOCK` gets.
    readback: Samples,
    spans: SpanLog,
    /// Last acked value per tenant-local key (0: never written).
    last: Vec<u64>,
    /// Read-back gets that did not return the last acked value.
    bad_gets: u64,
    /// When the last operation issued inside the window completed.
    last_end: Option<Instant>,
}

impl Client {
    fn new(win: &Window) -> Client {
        Client {
            last: vec![0; KEYS_PER_TENANT as usize],
            put_lat: (0..win.subs).map(|_| Samples::default()).collect(),
            ..Client::default()
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.first_error.get_or_insert(e);
    }
}

/// The measured window of one phase.
#[derive(Clone, Copy)]
struct Window {
    record_from: Instant,
    deadline: Instant,
    subs: usize,
}

impl Window {
    /// The sub-window `t` falls in, if it is inside the measured window.
    fn slot(&self, t: Instant) -> Option<usize> {
        if t < self.record_from || t >= self.deadline {
            return None;
        }
        let len = (self.deadline - self.record_from).as_nanos();
        Some(((t - self.record_from).as_nanos() * self.subs as u128 / len) as usize)
    }

    fn sub_secs(&self) -> Vec<f64> {
        let len = (self.deadline - self.record_from).as_secs_f64();
        vec![len / self.subs as f64; self.subs]
    }
}

/// A value that names its writer, key and sequence number.
fn value_of(client: usize, key: u64, seq: u64) -> u64 {
    ((client as u64 + 1) << 56) | (key << 40) | seq
}

fn req_id(client: usize, seq: u64) -> u64 {
    ((client as u64) << 48) | seq
}

/// Client `c`: closed loop of puts to random keys of its own tenant until
/// the deadline. `names` are the span names of the put and checkpoint.
fn client(stack: &Stack, c: usize, rng: &mut Rng, win: Window, names: [&'static str; 2]) -> Client {
    let mut cl = Client::new(&win);
    let traced = stack.trace.is_some();
    let mut own_acked = 0u64;
    let mut seq = 0u64;
    loop {
        let start = Instant::now();
        if start >= win.deadline {
            break;
        }
        let slot = win.slot(start);
        seq += 1;
        let key = rng.below(KEYS_PER_TENANT);
        let value = value_of(c, key, seq);
        let r = stack.put(c, key, value);
        let end = Instant::now();
        cl.attempted += 1;
        if slot.is_some() {
            cl.last_end = Some(end);
        }
        let acked = r.is_ok();
        match r {
            Ok(()) => {
                cl.last[key as usize] = value;
                own_acked += 1;
                if let Some(i) = slot {
                    cl.acked_puts += 1;
                    cl.put_lat[i].record(end - start);
                    if traced {
                        cl.spans.push(names[0], start, end, Some(req_id(c, seq)));
                    }
                }
            }
            Err(e) => cl.fail(e),
        }
        if c == 0 && acked && own_acked.is_multiple_of(CHECKPOINT_EVERY) {
            let t = Instant::now();
            if let Err(e) = stack.checkpoint() {
                cl.fail(format!("checkpoint: {e}"));
            }
            if traced && slot.is_some() {
                cl.spans.push(names[1], t, Instant::now(), None);
            }
        }
    }
    cl
}

/// Read back every key of client `c`'s tenant `READBACK_PASSES` times,
/// in a strided order, one reader at a time on the idle stack, and check each get returns the
/// client's last acked value. `StmService::get` reads the engine directly
/// (no queue, executor or WAL), so these figures time the backend's read
/// path only.
fn read_back(stack: &Stack, c: usize, cl: &mut Client) {
    for _ in 0..READBACK_PASSES {
        for block in 0..KEYS_PER_TENANT / GET_BLOCK {
            let start = Instant::now();
            for i in block * GET_BLOCK..(block + 1) * GET_BLOCK {
                // An odd stride visits every key once per pass without
                // walking adjacent words, so the hardware prefetcher does
                // not decide the figure.
                let key = i * READBACK_STRIDE % KEYS_PER_TENANT;
                match stack.get(c, key) {
                    Ok(v) => cl.bad_gets += u64::from(v != cl.last[key as usize]),
                    Err(e) => cl.fail(e),
                }
            }
            cl.readback.record(start.elapsed() / GET_BLOCK as u32);
            cl.attempted += GET_BLOCK;
        }
    }
}

/// Span names of the service rung and of the durable rung.
const SERVICE_NAMES: [&str; 2] = ["client.put", "client.checkpoint"];
const DURABLE_NAMES: [&str; 2] = ["durable.put", "durable.checkpoint"];

/// One measured phase over one stack.
struct Phase {
    win: Window,
    /// From the window's start to the completion of its last operation.
    secs: f64,
    clients: Vec<Client>,
    /// Per-shard backend statistics over the window.
    shards: Vec<StatsSnapshot>,
    /// `(flushes, records)` of the group committers over the window.
    flushes: (u64, u64),
    overloaded: u64,
}

impl Phase {
    fn sum(&self, f: impl Fn(&Client) -> u64) -> u64 {
        self.clients.iter().map(f).sum()
    }

    /// Per-sub-window put latencies merged over the clients.
    fn put_windows(&self) -> Vec<Samples> {
        (0..self.win.subs)
            .map(|i| {
                let mut all = Samples::default();
                for c in &self.clients {
                    all.merge(&c.put_lat[i]);
                }
                all
            })
            .collect()
    }

    /// All of the window's put latencies.
    fn puts(&self) -> Samples {
        let mut all = Samples::default();
        for w in self.put_windows() {
            all.merge(&w);
        }
        all
    }

    fn acked_per_s(&self) -> f64 {
        self.sum(|c| c.acked_puts) as f64 / self.secs
    }

    fn spans(&mut self) -> SpanLog {
        let mut all = SpanLog::default();
        for c in &mut self.clients {
            all.append(std::mem::take(&mut c.spans));
        }
        all
    }
}

/// Drive `stack` with the clients for a warm-up and `window`, read every
/// key back, then stop it, check it and recover it.
fn measure(
    stack: Stack,
    seed: u64,
    window: Duration,
    subs: usize,
    names: [&'static str; 2],
) -> Result<Phase, String> {
    let start = Instant::now();
    let win = Window {
        record_from: start + WARMUP,
        deadline: start + WARMUP + window,
        subs,
    };
    let (clients, shards, flushes) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stack = &stack;
                s.spawn(move || {
                    let mut rng = Rng::new(seed, 100 + c as u64);
                    client(stack, c, &mut rng, win, names)
                })
            })
            .collect();
        std::thread::sleep(win.record_from.saturating_duration_since(Instant::now()));
        let before = (stack.shard_stats(), stack.engine().group_flush_stats());
        if let Some(t) = &stack.trace {
            t.recording.store(true, Ordering::Relaxed);
        }
        std::thread::sleep(win.deadline.saturating_duration_since(Instant::now()));
        if let Some(t) = &stack.trace {
            t.recording.store(false, Ordering::Relaxed);
        }
        let after = (stack.shard_stats(), stack.engine().group_flush_stats());
        let mut clients: Vec<Client> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        for (c, cl) in clients.iter_mut().enumerate() {
            read_back(&stack, c, cl);
        }
        let shards = after
            .0
            .iter()
            .zip(&before.0)
            .map(|(a, b)| a.since(b))
            .collect();
        let flushes = (after.1 .0 - before.1 .0, after.1 .1 - before.1 .1);
        (clients, shards, flushes)
    });
    let overloaded = match &stack.front {
        Front::Service(s) => s.overloaded(),
        Front::Direct(_) => 0,
    };
    let state = stack.stop_and_recover()?;
    // The window as measured: from its start to the completion of the
    // last operation issued inside it.
    let end = clients.iter().filter_map(|c| c.last_end).max();
    let secs = end.map_or(window, |e| e - win.record_from).as_secs_f64();
    let phase = Phase {
        win,
        secs,
        clients,
        shards,
        flushes,
        overloaded,
    };
    check_values(&phase, &state)?;
    Ok(phase)
}

/// Every read-back get returned the last acked value, and the final state
/// holds what the clients were acked for.
fn check_values(phase: &Phase, state: &BTreeMap<u64, u64>) -> Result<(), String> {
    let bad = phase.sum(|c| c.bad_gets);
    if bad != 0 {
        return Err(format!("{bad} read-back gets missed the last acked value"));
    }
    if let Some(e) = phase.clients.iter().find_map(|c| c.first_error.as_ref()) {
        println!("note: first failed operation: {e}");
    }
    for (tenant, c) in phase.clients.iter().enumerate() {
        for key in 0..KEYS_PER_TENANT {
            let held = state[&(tenant as u64 * KEYS_PER_TENANT + key)];
            if held != c.last[key as usize] {
                return Err(format!(
                    "tenant {tenant} key {key} holds {held}, last acked {}",
                    c.last[key as usize]
                ));
            }
        }
    }
    println!(
        "check: read-back matches, recovered state == memory state ({} keys)",
        state.len()
    );
    Ok(())
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let dir = args.work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let fs = fs_type(&dir)?;
    if fs == "tmpfs" || fs == "ramfs" {
        return Err(format!(
            "{} is on {fs}: fsync is free there, so the durable figures would mean nothing",
            dir.display()
        ));
    }
    let disk = format!("FileStore per shard under {} on {fs}", dir.display());
    match args.trace {
        false => println!("wal: MemStore per shard (the traced run adds a {disk})"),
        true => println!("wal: MemStore per shard, then a {disk}"),
    }

    if !args.trace {
        let (mut setup_s, mut phases) = (vec![], vec![]);
        for _ in 0..EXTRA_SETUPS {
            let t0 = Instant::now();
            let stack = Stack::build(None, false, false)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            stack.stop_and_recover()?;
        }
        for rep in 0..REPS {
            let t0 = Instant::now();
            let stack = Stack::build(None, false, false)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            let seed = Rng::new(args.seed, rep as u64).next();
            let window = args.seconds / REPS as u32;
            phases.push(measure(stack, seed, window, SUBS, SERVICE_NAMES)?);
        }
        report.attempted = phases.iter().map(|p| p.sum(|c| c.attempted)).sum();
        report.failed = phases.iter().map(|p| p.sum(|c| c.failed)).sum();
        let note = format!("median of {} set-ups", setup_s.len());
        report.metric("setup_s", median(&mut setup_s), "s", &note);
        let mut put: Vec<Samples> = phases.iter().flat_map(Phase::put_windows).collect();
        let acked: Vec<u64> = put.iter().map(Samples::len).collect();
        let secs: Vec<f64> = phases.iter().flat_map(|p| p.win.sub_secs()).collect();
        // Every workload prints every end-to-end metric; here each acked
        // put is one commit, so the two rates are one figure.
        report.windowed_rate(
            "commit_tps",
            &acked,
            &secs,
            "acked puts (= acked_puts_per_s)",
        );
        report.windowed_rate("acked_puts_per_s", &acked, &secs, "");
        println!(
            "  (gets: read-back of every key x{READBACK_PASSES} after each repetition \
             on the idle stack, {GET_BLOCK} gets per sample)"
        );
        let mut get: Vec<Samples> = phases
            .iter()
            .flat_map(|p| p.clients.iter().map(|c| c.readback.clone()))
            .collect();
        report.windowed_pct_us("put_p50_us", &mut put, 0.50)?;
        report.windowed_pct_us("put_p90_us", &mut put, 0.90)?;
        report.windowed_pct_us("get_p50_us", &mut get, 0.50)?;
        report.windowed_pct_us("get_p90_us", &mut get, 0.90)?;
        report.tail_note("put_p99_us", &put);
        report.tail_note("get_p99_us", &get);
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(());
    }

    // Traced run, each phase on a fresh stack: over `MemStore`s an
    // untraced phase (the overhead reference) and a traced phase (the
    // backend, router and service figures); on disk a traced service phase
    // (the WAL figures and the ladder) and the durable rung, which sends
    // the same key stream straight to `DurableEngine`.
    let phase = |disk: bool, traced, direct, share: f64, names| -> Result<(Phase, _), String> {
        let rung = match (disk, traced, direct) {
            (false, false, _) => "plain",
            (false, true, _) => "traced",
            (true, _, false) => "disk",
            (true, _, true) => "durable",
        };
        let stack_dir = dir.join(rung);
        let stack = Stack::build(disk.then_some(stack_dir.as_path()), traced, direct)?;
        let trace = stack.trace.clone();
        let phase = measure(stack, args.seed, args.seconds.mul_f64(share), 1, names)?;
        Ok((phase, trace))
    };
    let (plain, _) = phase(false, false, false, 0.25, SERVICE_NAMES)?;
    let (mut p, _) = phase(false, true, false, 0.25, SERVICE_NAMES)?;
    let (mut dp, trace) = phase(true, true, false, 0.3, SERVICE_NAMES)?;
    let (mut d, _) = phase(true, true, true, 0.2, DURABLE_NAMES)?;
    let phases = [&plain, &p, &dp, &d];
    report.attempted = phases.iter().map(|x| x.sum(|c| c.attempted)).sum();
    report.failed = phases.iter().map(|x| x.sum(|c| c.failed)).sum();

    let mut core = StatsSnapshot::default();
    for s in &p.shards {
        core = core.merged(s);
    }
    // The window issues puts only; the gets come after it.
    core_metrics(report, &core, 0, p.sum(|c| c.acked_puts));
    absent(
        report,
        &[
            ("structures.op_p50_us", "us"),
            ("structures.op_p99_us", "us"),
        ],
    );
    let commits: Vec<f64> = p.shards.iter().map(|s| s.commits as f64).collect();
    let mean = commits.iter().sum::<f64>() / commits.len() as f64;
    let skew = commits.iter().cloned().fold(0.0, f64::max) / mean.max(1.0);
    report.metric(
        "engine.shard_commit_skew",
        skew,
        "ratio",
        &format!("per-shard commits {commits:?}"),
    );
    report.metric(
        "service.overloaded",
        p.overloaded as f64,
        "count",
        "submissions refused by backpressure",
    );
    let (traced, untraced) = (p.acked_per_s(), plain.acked_per_s());
    report.metric(
        "trace.overhead_frac",
        1.0 - traced / untraced,
        "ratio",
        &format!("acked_puts_per_s {untraced:.0} untraced, {traced:.0} traced"),
    );

    // The ladder and the WAL figures, from the service and the durable
    // rung on disk.
    let trace = trace.expect("traced stack");
    let puts = dp.sum(|c| c.acked_puts);
    println!("ladder (on disk, traced, p50 of one put):");
    let svc = note_pct("put_p50_us (service)", &mut dp.puts(), 0.5, "");
    let durable = report.pct_us("durable.put_p50_us", &mut d.puts(), 0.50)?;
    report.metric(
        "service.handoff_p50_us",
        svc.us() - durable.us(),
        "us",
        "service-rung p50 minus durable-rung p50",
    );
    let mut calls = trace.calls();
    report.pct_us("wal.append_p50_us", &mut calls.append, 0.50)?;
    report.pct_us("wal.sync_p50_us", &mut calls.sync, 0.50)?;
    report.pct_us("wal.sync_p99_us", &mut calls.sync, 0.99)?;
    let (flushes, records) = dp.flushes;
    report.metric(
        "wal.mean_batch",
        records as f64 / flushes.max(1) as f64,
        "count",
        &format!("records={records} flushes={flushes}"),
    );
    let per_put = |n: f64| n / puts.max(1) as f64;
    report.metric(
        "wal.syncs_per_put",
        per_put(calls.sync.len() as f64),
        "ratio",
        &format!("syncs={} puts={puts}", calls.sync.len()),
    );
    report.metric(
        "wal.bytes_per_put",
        per_put(calls.bytes as f64),
        "B",
        "bytes appended per acked put",
    );
    report.metric(
        "wal.sync_busy_frac",
        calls.sync.sum_ns() as f64 / (dp.secs * 1e9 * SHARDS as f64),
        "ratio",
        "summed sync time / (wall time x shards)",
    );
    let ckpt = calls.checkpoint.pct(0.5);
    report.metric(
        "wal.checkpoint_p50_ms",
        ckpt.map_or(0.0, |c| c.ns as f64 / 1e6),
        "ms",
        &ckpt.map_or(String::new(), |c| format!("n={} beyond={}", c.n, c.beyond)),
    );
    report.metric(
        "wal.checkpoints",
        calls.checkpoint.len() as f64,
        "count",
        "store checkpoints in the window",
    );
    let mut spans = std::mem::take(&mut calls.spans);
    drop(calls);
    spans.append(d.spans());
    spans.append(dp.spans());
    spans.append(p.spans());
    let _ = std::fs::remove_dir_all(&dir);
    write_spans(args, &mut spans)
}
