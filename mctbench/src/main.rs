//! mctbench — one seeded command that serves a generated TPC-W store
//! from an embedded `mctd` (`mct_server::serve_shared`), drives it from
//! the same process, checks every reply, and prints end-to-end metrics
//! (`--trace 0`) or per-layer metrics from a separate in-process traced
//! replay (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path mctbench/Cargo.toml -- \
//!     --workload read-hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! See `mctbench/README.md` for the workloads and the metric → layer
//! → workload table.

mod drive;
mod mix;
mod stats;
mod trace;

use drive::{Kind, Loop, Run};
use mct_core::{MctDatabase, StoredDb};
use mct_query::plan::plan_path;
use mct_query::{parse_query, Expr};
use mct_server::{
    render_xml, rows_from_tuples, serve_shared, AppState, Client, ServerConfig, ServerHandle,
};
use mct_storage::{DiskManager, FileDisk, MemDisk};
use mct_workloads::{TpcwConfig, TpcwData};
use mix::{Mix, Req, Update};
use stats::{median, Samples};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};
use trace::{Layer, NoTrace, Spans, STAGES};

/// TPC-W generator scale of every workload (about 5.6 MiB of data and
/// index once stored).
const SCALE: f64 = 0.5;
/// Buffer pool of an in-memory store: `mctd`'s default.
const HOT_POOL: usize = 128 * 1024 * 1024;
/// Buffer pool of `read-cold`: about a tenth of data + index.
const COLD_POOL: usize = 512 * 1024;
/// Auto-checkpoint threshold of `mixed-durable`, in live WAL bytes.
const CHECKPOINT_BYTES: u64 = 64 * 1024 * 1024;
/// Server workers and load clients (the reference machine has 2 cores).
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `Client::healthz` round trips timed in a traced run.
const HEALTHZ_PROBES: usize = 200;
/// `StoredDb::snapshot_catalog` calls timed in a traced run.
const CATALOG_PROBES: usize = 5;
/// Failed requests described on stderr before going quiet.
const FAILURES_SHOWN: u64 = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum StoreKind {
    /// `StoredDb::build` over `MemDisk`.
    Mem,
    /// `StoredDb::create` + `sync` under the run's data directory.
    File,
}

struct Workload {
    name: &'static str,
    store: StoreKind,
    pool: usize,
    lp: Loop,
    /// Every n-th request is an update (0: read only).
    update_every: u64,
    checkpoint_bytes: Option<u64>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "read-hot",
        store: StoreKind::Mem,
        pool: HOT_POOL,
        lp: Loop::Closed { clients: CLIENTS },
        update_every: 0,
        checkpoint_bytes: None,
    },
    Workload {
        name: "read-cold",
        store: StoreKind::File,
        pool: COLD_POOL,
        lp: Loop::Closed { clients: CLIENTS },
        update_every: 0,
        checkpoint_bytes: None,
    },
    Workload {
        name: "mixed-durable",
        store: StoreKind::File,
        pool: HOT_POOL,
        // About a quarter of the closed-loop capacity, so that the read
        // median stays below the reads stalled behind updates (README).
        lp: Loop::Open {
            clients: CLIENTS,
            rate: 100.0,
        },
        update_every: 20,
        checkpoint_bytes: Some(CHECKPOINT_BYTES),
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// One reported number. `value: None` means not available (too few
/// samples, or the workload does not exercise the layer).
struct Metric {
    name: String,
    value: Option<f64>,
    unit: &'static str,
    /// Samples behind a timing.
    n: Option<usize>,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Checks that failed outside the per-request ones.
    errors: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str, n: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
    }

    /// The `q`-quantile of nanosecond samples, in `unit` (`ms` or `us`).
    fn quantile(&mut self, name: &str, s: &Samples, q: f64, unit: &'static str) {
        let v = s.quantile(q).map(|ns| ns as f64 / ns_per(unit));
        self.put(name, v, unit, Some(s.len()));
    }

    /// The mean of nanosecond samples, in `unit` (`ms` or `us`).
    fn mean(&mut self, name: &str, s: &Samples, unit: &'static str) {
        let v = s.mean().map(|ns| ns / ns_per(unit));
        self.put(name, v, unit, Some(s.len()));
    }

    fn ratio(&mut self, name: &str, num: f64, den: f64, unit: &'static str) {
        self.put(name, (den > 0.0).then(|| num / den), unit, None);
    }

    fn fail(&mut self, why: String) {
        eprintln!("mctbench: FAILED: {why}");
        self.errors.push(why);
    }
}

fn ns_per(unit: &str) -> f64 {
    match unit {
        "ms" => 1e6,
        "us" => 1e3,
        _ => unreachable!("timings are reported in ms or us"),
    }
}

/// Where this run keeps its file-backed store: inside the build
/// directory, so nothing outside the checkout is written.
fn data_dir(workload: &str) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(root)
        .join("mctbench-data")
        .join(format!("{workload}-{}", std::process::id()))
}

/// The store's data: TPC-W at [`SCALE`] from the generator's default
/// seed, the data `mctd --db tpcw` serves. The run's seed draws the
/// requests, not the data.
fn tpcw() -> TpcwData {
    TpcwData::generate(&TpcwConfig {
        scale: SCALE,
        ..TpcwConfig::default()
    })
}

struct Setup<D: DiskManager> {
    db: Arc<RwLock<StoredDb<D>>>,
    handle: ServerHandle<D>,
    data: TpcwData,
    generate_s: f64,
    store_s: f64,
    serve_s: f64,
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        exec_threads: 1,
        ..ServerConfig::default()
    }
}

/// Generate, store and serve once, timing each step. `make` builds
/// set-up number `k`'s store.
fn set_up<D, M>(k: usize, make: &M) -> Result<Setup<D>, String>
where
    D: DiskManager + Sync + 'static,
    M: Fn(MctDatabase, usize) -> Result<StoredDb<D>, String>,
{
    let t = Instant::now();
    let data = tpcw();
    let logical = data.build_mct();
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut store = make(logical, k)?;
    store
        .ensure_all_annotated()
        .map_err(|e| format!("annotate: {e}"))?;
    let store_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let db = Arc::new(RwLock::new(store));
    let handle =
        serve_shared(Arc::clone(&db), server_config()).map_err(|e| format!("serve: {e}"))?;
    let client = Client::new("127.0.0.1", handle.port()).with_timeout(Duration::from_secs(5));
    let ready = Instant::now();
    while !matches!(client.healthz(), Ok(r) if r.status == 200) {
        if ready.elapsed() > Duration::from_secs(30) {
            handle.shutdown();
            return Err("server never answered /healthz".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let serve_s = t.elapsed().as_secs_f64();
    Ok(Setup {
        db,
        handle,
        data,
        generate_s,
        store_s,
        serve_s,
    })
}

/// Delete the stores of all but the served (last) set-up and flush the
/// served store's files, so that no write-back of set-up data shares
/// the disk with the timed run's fsyncs.
fn settle_disk(root: &Path) -> std::io::Result<()> {
    for k in 0..SETUPS {
        let dir = root.join(k.to_string());
        if !dir.exists() {
            continue;
        }
        if k + 1 < SETUPS {
            std::fs::remove_dir_all(&dir)?;
            continue;
        }
        for entry in std::fs::read_dir(&dir)? {
            std::fs::File::open(entry?.path())?.sync_all()?;
        }
    }
    Ok(())
}

/// The reply every read text must get, from `execute_shared` +
/// `render_xml` on `reference`, an identically built in-process store.
fn expected_replies<D: DiskManager>(
    reference: &StoredDb<D>,
    reads: &[String],
) -> Result<Vec<String>, String> {
    reads
        .iter()
        .map(|text| {
            let plan = match parse_query(text).map_err(|e| format!("parse {text}: {e}"))? {
                Expr::Path(p) => {
                    plan_path(reference, &p, true).map_err(|e| format!("{text}: {e}"))?
                }
                _ => return Err(format!("not a path: {text}")),
            };
            let tuples = plan
                .execute_shared(reference, 1, None)
                .map_err(|e| format!("reference run of {text}: {e}"))?;
            Ok(render_xml(&rows_from_tuples(reference, &tuples)))
        })
        .collect()
}

/// The `tuples` count of an update reply.
fn update_tuples(body: &str) -> u64 {
    mct_server::Json::parse(body)
        .ok()
        .and_then(|j| j.get("tuples").and_then(|t| t.as_u64()))
        .unwrap_or(0)
}

/// Checks replies and tracks the last acknowledged write per target.
struct Checker<'a> {
    mix: &'a Mix,
    expected: &'a [String],
    acked: Mutex<BTreeMap<String, Update>>,
    failures: AtomicU64,
}

impl Checker<'_> {
    fn failure(&self, what: &str) -> bool {
        if self.failures.fetch_add(1, Ordering::Relaxed) < FAILURES_SHOWN {
            eprintln!("mctbench: request failed: {what}");
        }
        false
    }

    fn read(&self, ix: usize, reply: Result<String, String>) -> bool {
        match reply {
            Ok(body) if body == self.expected[ix] => true,
            Ok(_) => self.failure(&format!("wrong reply to {}", self.mix.reads[ix])),
            Err(e) => self.failure(&e),
        }
    }

    fn update(&self, u: &Update, reply: Result<String, String>) -> bool {
        match reply {
            Ok(body) if update_tuples(&body) > 0 => {
                // Request i goes to client i % 2 and updates are every
                // 20th request, so every update comes from one client
                // and acknowledgement order is commit order.
                self.acked
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(u.target(), u.clone());
                true
            }
            Ok(body) => self.failure(&format!("update touched nothing: {body}")),
            Err(e) => self.failure(&e),
        }
    }
}

/// A served reply as `Ok(body)` when it is a 200, else the failure.
fn served(reply: std::io::Result<mct_server::Reply>) -> Result<String, String> {
    match reply {
        Ok(r) if r.status == 200 => Ok(r.body_str()),
        Ok(r) => Err(format!("status {}: {}", r.status, r.body_str().trim())),
        Err(e) => Err(format!("transport: {e}")),
    }
}

fn kind_of(mix: &Mix) -> impl Fn(u64) -> Kind + Sync + '_ {
    |i| {
        if mix.is_update(i) {
            Kind::Update
        } else {
            Kind::Read
        }
    }
}

/// The timed run over HTTP: one fresh connection per request, no
/// retries.
fn served_run(wl: &Workload, secs: u64, port: u16, ck: &Checker) -> Run {
    let client = Client::new("127.0.0.1", port);
    drive::run(
        wl.lp,
        Duration::from_secs(secs),
        kind_of(ck.mix),
        |_, i| match ck.mix.request(i) {
            Req::Read(ix) => ck.read(ix, served(client.query(&ck.mix.reads[ix]))),
            Req::Update(u) => ck.update(&u, served(client.update(&u.text()))),
        },
    )
}

/// An in-process replay of the same numbered requests.
fn replay<D, T, F>(
    wl: &Workload,
    dur: Duration,
    state: &AppState<D>,
    ck: &Checker,
    tracer: F,
) -> (Run, Vec<T>)
where
    D: DiskManager + Sync,
    T: trace::Tracer + Send,
    F: Fn() -> T,
{
    let tracers: Vec<Mutex<T>> = (0..wl.lp.clients()).map(|_| Mutex::new(tracer())).collect();
    let run = drive::run(wl.lp, dur, kind_of(ck.mix), |c, i| {
        let mut tr = tracers[c].lock().unwrap_or_else(PoisonError::into_inner);
        match ck.mix.request(i) {
            Req::Read(ix) => ck.read(ix, trace::query(state, &ck.mix.reads[ix], &mut *tr)),
            Req::Update(u) => ck.update(&u, trace::update(state, &u.text(), &mut *tr)),
        }
    });
    let tracers = tracers
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    (run, tracers)
}

fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `wal.*` counters whose deltas over the traced replay are reported.
const WAL_COUNTERS: [&str; 3] = ["wal.bytes_appended", "wal.fsyncs", "wal.checkpoints"];

fn counter(name: &str) -> u64 {
    mct_obs::counter(name).get()
}

fn run<D, M>(args: &Args, make: M, report: &mut Report) -> Result<(), String>
where
    D: DiskManager + Sync + 'static,
    M: Fn(MctDatabase, usize) -> Result<StoredDb<D>, String>,
{
    let wl = args.workload;

    // Set up several times and report medians. The last set-up is
    // served; the first one's store, built the same way, is the
    // in-process reference the replies are checked against.
    let mut times = Vec::new();
    let mut reference = None;
    let mut setup: Option<Setup<D>> = None;
    for k in 0..SETUPS {
        if let Some(old) = setup.take() {
            old.handle.shutdown();
            reference.get_or_insert(old.db);
        }
        let s = set_up(k, &make)?;
        times.push((s.generate_s, s.store_s, s.serve_s));
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let reference = reference.expect("SETUPS > 1");
    let port = setup.handle.port();

    // The workload's shape, recorded and guarded.
    let (store_bytes, pool_bytes) = {
        let db = setup.db.read().unwrap_or_else(PoisonError::into_inner);
        let st = db.stats();
        (
            st.data_bytes + st.index_bytes,
            db.pool.capacity() * mct_storage::PAGE_SIZE,
        )
    };
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {}: nproc {nproc}, store {:.2} MiB (data + index), pool {:.2} MiB, {}, checkpoint {}, fsync {}",
        wl.name,
        mib(store_bytes),
        mib(pool_bytes as u64),
        match wl.lp {
            Loop::Closed { clients } => format!("closed loop with {clients} clients"),
            Loop::Open { clients, rate } => format!("open loop at {rate} req/s over {clients} clients"),
        },
        wl.checkpoint_bytes
            .map_or("off".to_string(), |b| format!("at {:.0} MiB of live WAL", mib(b))),
        match wl.store {
            StoreKind::Mem => "none (in-memory store, no WAL)",
            StoreKind::File => "on every WAL commit",
        },
    );
    // A 128 MiB pool must hold the whole store; the cold pool must be
    // at most an eighth of it.
    if wl.pool == HOT_POOL && store_bytes > pool_bytes as u64 {
        return Err(format!("{}: the store does not fit its pool", wl.name));
    }
    if wl.pool == COLD_POOL && store_bytes < 8 * pool_bytes as u64 {
        return Err(format!("{}: the store is not 8x its pool", wl.name));
    }

    let mix = Mix::new(&setup.data, args.seed, wl.update_every);
    let expected = expected_replies(
        &reference.read().unwrap_or_else(PoisonError::into_inner),
        &mix.reads,
    )?;
    drop(reference);
    settle_disk(&data_dir(wl.name)).map_err(|e| format!("flushing set-up files: {e}"))?;
    let ck = Checker {
        mix: &mix,
        expected: &expected,
        acked: Mutex::new(BTreeMap::new()),
        failures: AtomicU64::new(0),
    };

    // Warm-up: every distinct read text once over HTTP, checked byte
    // for byte against the reference store.
    let client = Client::new("127.0.0.1", port);
    for (ix, text) in mix.reads.iter().enumerate() {
        report.attempted += 1;
        if !ck.read(ix, served(client.query(text))) {
            report.failed += 1;
        }
    }

    let checkpoints = counter("wal.checkpoints");
    let timed = served_run(wl, args.seconds, port, &ck);
    println!(
        "  checkpoints during the timed run: {}",
        counter("wal.checkpoints") - checkpoints
    );
    report.attempted += timed.records.len() as u64;
    report.failed += timed.failed();
    let ok = |k: Kind| {
        let mut s = Samples::default();
        for r in timed.records.iter().filter(|r| r.ok && r.kind == k) {
            s.push(r.latency_ns);
        }
        s
    };
    let (reads, updates) = (ok(Kind::Read), ok(Kind::Update));
    print_shapes(&mix, &timed);
    println!("  all reads:   {} (n={})", ladder(&reads), reads.len());
    println!("  all updates: {} (n={})", ladder(&updates), updates.len());
    let mut lags = Samples::default();
    for r in &timed.records {
        lags.push(r.lag_ns);
    }

    let t = |i: usize| median(&times.iter().map(|t| [t.0, t.1, t.2][i]).collect::<Vec<_>>());
    let setup_s = median(&times.iter().map(|t| t.0 + t.1 + t.2).collect::<Vec<_>>());
    report.put("setup_s", Some(setup_s), "s", Some(SETUPS));
    report.put("setup.generate_s", Some(t(0)), "s", Some(SETUPS));
    report.put("setup.store_s", Some(t(1)), "s", Some(SETUPS));
    report.put("setup.serve_s", Some(t(2)), "s", Some(SETUPS));
    report.put(
        "throughput_rps",
        Some(timed.throughput()),
        "1/s",
        Some(timed.records.len()),
    );
    report.quantile("read_p50_ms", &reads, 0.50, "ms");
    report.quantile("read_p99_ms", &reads, 0.99, "ms");
    report.quantile("update_p50_ms", &updates, 0.50, "ms");
    report.quantile("update_p90_ms", &updates, 0.90, "ms");
    match wl.lp {
        Loop::Open { .. } => report.quantile("generator_lag_p99_ms", &lags, 0.99, "ms"),
        Loop::Closed { .. } => report.put("generator_lag_p99_ms", None, "ms", None),
    }
    if args.trace {
        traced(args, &setup, &ck, timed.throughput(), report)?;
    }

    if wl.update_every > 0 {
        if let Err(e) = served(client.check()) {
            report.fail(format!("GET /check: {e}"));
        }
    }
    let Setup { db, handle, .. } = setup;
    handle.shutdown();
    drop(db);
    if wl.update_every > 0 {
        recover_check(wl, &ck, report);
    }
    report.put("peak_rss_mib", peak_rss_mib(), "MiB", None);
    Ok(())
}

/// A quantile ladder of `s` in milliseconds, for the text output.
fn ladder(s: &Samples) -> String {
    [0.5, 0.75, 0.9, 0.95, 0.99]
        .iter()
        .map(|&q| format!("p{} {}", q * 100.0, ms(s, q)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The `q`-quantile of `s` in milliseconds, or `n/a`.
fn ms(s: &Samples, q: f64) -> String {
    s.quantile(q)
        .map_or("n/a".to_string(), |ns| format!("{:.3} ms", ns as f64 / 1e6))
}

/// Read latency per shape of the mix, for reading the aggregate.
fn print_shapes(mix: &Mix, run: &Run) {
    let mut first = 0;
    for (shape, count, _) in mix.shapes() {
        let mut s = Samples::default();
        for r in &run.records {
            if let Req::Read(ix) = mix.request(r.i) {
                if r.ok && (first..first + count).contains(&ix) {
                    s.push(r.latency_ns);
                }
            }
        }
        println!(
            "  {shape:<5} read p50 {}, p99 {} (n={})",
            ms(&s, 0.5),
            ms(&s, 0.99),
            s.len()
        );
        first += count;
    }
}

/// The traced run: same seed, same numbered requests, in process.
fn traced<D>(
    args: &Args,
    setup: &Setup<D>,
    ck: &Checker,
    served_rps: f64,
    report: &mut Report,
) -> Result<(), String>
where
    D: DiskManager + Sync + 'static,
{
    let wl = args.workload;
    let state = setup.handle.state();
    // The untraced replay runs half as long as the served run; so does
    // the traced one on a closed loop. On the open loop the traced
    // replay runs as long as the served run, to see as many updates.
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let traced_for = match wl.lp {
        Loop::Open { .. } => Duration::from_secs(args.seconds),
        Loop::Closed { .. } => half,
    };

    // HTTP alone: a round trip that does no database work.
    let client = Client::new("127.0.0.1", setup.handle.port());
    let mut rtt = Samples::default();
    for _ in 0..HEALTHZ_PROBES {
        let t = Instant::now();
        let ok = matches!(client.healthz(), Ok(r) if r.status == 200);
        rtt.push(t.elapsed().as_nanos() as u64);
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    report.quantile("server.http.healthz_rtt_us", &rtt, 0.5, "us");

    let (plain, _) = replay(wl, half, state, ck, || NoTrace);
    report.attempted += plain.records.len() as u64;
    report.failed += plain.failed();

    let pool_mark = state
        .db
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .pool
        .stats();
    let wal_mark = WAL_COUNTERS.map(counter);
    let (run, tracers) = replay(wl, traced_for, state, ck, Spans::default);
    report.attempted += run.records.len() as u64;
    report.failed += run.failed();
    let pool = state
        .db
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .pool
        .stats()
        .delta_since(&pool_mark);
    let wal = WAL_COUNTERS.map(counter);
    let mut sp = Spans::default();
    for t in &tracers {
        sp.merge(t);
    }

    let requests = run.records.len() as f64;
    let updates = run
        .records
        .iter()
        .filter(|r| r.kind == Kind::Update)
        .count() as f64;
    let lookups = (sp.cache_hits + sp.cache_misses) as f64;
    for (name, layer) in [
        ("server.cache.lookup_us", Layer::CacheLookup),
        ("server.cache.insert_us", Layer::CacheInsert),
        ("query.parse_us", Layer::Parse),
        ("query.plan_us", Layer::Plan),
        ("server.lock.read_wait_us", Layer::ReadWait),
        ("server.lock.write_wait_us", Layer::WriteWait),
        ("query.exec_us", Layer::Exec),
        ("server.analyze_render_us", Layer::Analyze),
        ("server.render_us", Layer::Render),
        ("query.update_us", Layer::Update),
    ] {
        report.mean(name, sp.layer(layer), "us");
    }
    report.mean(
        "server.lock.write_hold_ms",
        sp.layer(Layer::WriteHold),
        "ms",
    );
    report.mean("server.other_us", &sp.other, "us");
    report.mean("server.request_us", &sp.requests, "us");
    report.quantile(
        "server.lock.read_wait_p99_us",
        sp.layer(Layer::ReadWait),
        0.99,
        "us",
    );
    report.quantile("query.update_p90_us", sp.layer(Layer::Update), 0.90, "us");
    let plans = sp.plans as f64;
    for (i, (kind, _)) in STAGES.iter().enumerate() {
        let name = format!("query.exec.{kind}_us");
        report.ratio(&name, sp.stage_ns[i] as f64 / 1e3, plans, "us");
    }
    let (rows, ct_rows) = (sp.rows_out as f64, sp.crosstree_rows_in as f64);
    let (wal_bytes, fsyncs) = ((wal[0] - wal_mark[0]) as f64, (wal[1] - wal_mark[1]) as f64);
    #[rustfmt::skip]
    let ratios = [
        ("server.cache.hit_ratio", sp.cache_hits as f64, lookups, "ratio"),
        ("query.exec.rows_out", rows, plans, "rows"),
        ("query.exec.pages_per_row", sp.pages as f64, rows, "pages/row"),
        ("query.exec.crosstree_pages_per_row", sp.crosstree_pages as f64, ct_rows, "pages/row"),
        ("server.render.bytes_per_row", sp.rendered_bytes as f64, sp.rendered_rows as f64, "B/row"),
        ("storage.pool.hit_ratio", pool.hits as f64, pool.accesses() as f64, "ratio"),
        ("storage.pool.misses_per_req", pool.misses as f64, requests, "pages"),
        ("storage.pool.evictions_per_req", pool.evictions as f64, requests, "pages"),
        ("storage.pool.writebacks_per_update", pool.writebacks as f64, updates, "pages"),
        ("storage.wal.bytes_per_update", wal_bytes, updates, "B"),
        ("storage.wal.fsyncs_per_update", fsyncs, updates, "count"),
    ];
    for (name, num, den, unit) in ratios {
        report.ratio(name, num, den, unit);
    }
    let checkpoints = (wal[2] - wal_mark[2]) as f64;
    report.put("storage.wal.checkpoints", Some(checkpoints), "count", None);

    // The per-commit catalog snapshot, timed on its own.
    let mut enc = Samples::default();
    let mut bytes = 0;
    for _ in 0..CATALOG_PROBES {
        let db = state.db.read().unwrap_or_else(PoisonError::into_inner);
        let t = Instant::now();
        bytes = std::hint::black_box(db.snapshot_catalog()).len();
        enc.push(t.elapsed().as_nanos() as u64);
    }
    report.put("core.txn.catalog_bytes", Some(bytes as f64), "B", None);
    report.mean("core.txn.catalog_encode_us", &enc, "us");

    let traced_rps = run.throughput();
    report.put(
        "trace.rps",
        Some(traced_rps),
        "1/s",
        Some(run.records.len()),
    );
    report.put(
        "trace.overhead_pct",
        Some(100.0 * (plain.throughput() - traced_rps) / plain.throughput()),
        "%",
        None,
    );
    report.put(
        "trace.served_gap_pct",
        Some(100.0 * (served_rps - traced_rps) / served_rps),
        "%",
        None,
    );

    // The split adds up: top-level spans plus "other" is the request.
    let top = [
        Layer::ReadWait,
        Layer::CacheLookup,
        Layer::Parse,
        Layer::Plan,
        Layer::CacheInsert,
        Layer::Exec,
        Layer::Analyze,
        Layer::Render,
        Layer::WriteWait,
        Layer::WriteHold,
    ];
    let per_req = |ns: u64| ns as f64 / 1e3 / requests;
    let mut split = String::new();
    for l in top {
        split.push_str(&format!(" {l:?} {:.1} +", per_req(sp.layer(l).sum())));
    }
    let covered: u64 = top.iter().map(|&l| sp.layer(l).sum()).sum::<u64>() + sp.other.sum();
    println!(
        "  traced split (us/request):{split} other {:.1} = {:.1} of {:.1} request",
        per_req(sp.other.sum()),
        per_req(covered),
        per_req(sp.requests.sum())
    );
    Ok(())
}

/// Reopen the data directory and check every acknowledged update
/// survived, the last one for each target included.
fn recover_check(wl: &Workload, ck: &Checker, report: &mut Report) {
    let dir = data_dir(wl.name).join((SETUPS - 1).to_string());
    let mut store = match StoredDb::open(&dir, wl.pool) {
        Ok(Some(s)) => s,
        Ok(None) => return report.fail("recovery found no durable commit".to_string()),
        Err(e) => return report.fail(format!("recovery: {e}")),
    };
    let acked = ck.acked.lock().unwrap_or_else(PoisonError::into_inner);
    for u in acked.values() {
        let text = u.readback();
        let plan = match parse_query(&text) {
            Ok(Expr::Path(p)) => plan_path(&store, &p, true),
            _ => return report.fail(format!("readback does not parse: {text}")),
        };
        let values: Result<Vec<String>, String> = match plan {
            Ok(plan) => plan
                .execute(&mut store)
                .map(|tuples| {
                    tuples
                        .iter()
                        .map(|t| store.db.content(t[0].node).unwrap_or("").to_string())
                        .collect()
                })
                .map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        match values {
            Ok(v) if !v.is_empty() && v.iter().all(|x| *x == u.value()) => {}
            Ok(v) => report.fail(format!(
                "after recovery {} reads {v:?}, want {}",
                u.target(),
                u.value()
            )),
            Err(e) => report.fail(format!("readback after recovery: {e}")),
        }
    }
    println!(
        "  recovery: {} acknowledged targets verified after StoredDb::open",
        acked.len()
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mctbench: {e}");
            eprintln!("usage: mctbench --workload read-hot|read-cold|mixed-durable --seed N [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let wl = args.workload;
    let dir = data_dir(wl.name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut report = Report::default();
    let outcome = match wl.store {
        StoreKind::Mem => run::<MemDisk, _>(
            &args,
            |db, _| StoredDb::build(db, wl.pool).map_err(|e| e.to_string()),
            &mut report,
        ),
        StoreKind::File => run::<FileDisk, _>(
            &args,
            |db, k| {
                let mut s = StoredDb::create(dir.join(k.to_string()), db, wl.pool)
                    .map_err(|e| format!("create: {e}"))?;
                s.sync().map_err(|e| format!("sync: {e}"))?;
                s.set_checkpoint_bytes(wl.checkpoint_bytes);
                Ok(s)
            },
            &mut report,
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = outcome {
        eprintln!("mctbench: {e}");
        std::process::exit(1);
    }
    print_report(&report, args.trace);
}

/// The end-to-end metrics; every other metric is a per-layer one.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_rps",
    "read_p50_ms",
    "read_p99_ms",
    "peak_rss_mib",
];

/// Print every metric as text, then the result line. The result line
/// carries the end-to-end metrics, or with `--trace 1` the per-layer
/// ones.
fn print_report(r: &Report, trace: bool) {
    let mut json = String::new();
    for m in &r.metrics {
        let n = m.n.map_or(String::new(), |n| format!(" (n={n})"));
        match m.value {
            Some(v) => println!("  {:<40} {v:>14.4} {}{n}", m.name, m.unit),
            None => println!("  {:<40} {:>14} {}{n}", m.name, "n/a", m.unit),
        }
        if END_TO_END.contains(&m.name.as_str()) == trace {
            continue;
        }
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            m.value.unwrap_or(0.0),
            m.unit
        ));
    }
    let correct = r.failed == 0 && r.errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        r.attempted.max(1),
        r.failed + r.errors.len() as u64
    );
}
