//! `kv_hot` and `kv_churn`: the sharded KV store in hybrid mode under two
//! closed-loop clients.
//!
//! A phase opens a fresh store, loads every key through `put` in bounded
//! batches with `checkpoint_and_truncate` between them, and runs one
//! warm-up epoch; that is set-up. An untraced phase repeats it on fresh
//! stores at [`SETUPS`](crate::SETUPS) points spread over the run and
//! reports the trimmed mean. The timed phase is whole epochs of a fixed op
//! quota per client, each followed by `checkpoint_and_truncate` of every
//! shard, so the WAL never holds more than one epoch of writes. Crash
//! images — the durable bytes after an epoch, sampled across the run, and
//! a seeded crash at its end — are reopened repeatedly; the first
//! reopening of each must equal the last acknowledged state of every
//! shard.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::trace::{span, Tracer};
use crate::{
    layer_pct, merged, parallel_samples, run_clients, span_secs, trimmed_mean, Budget, Class,
    Client, EpochClock, Layer, Phase, StmProbe, CLIENTS,
};
use txfix_bench::pool::pin_worker_rng;
use txfix_bench::workload::{Mix, Workload, WorkloadCfg, WorkloadOp};
use txfix_kvstore::model::{check_history, Event, ModelOp, ModelResult};
use txfix_kvstore::page::PoolStats;
use txfix_kvstore::{KvConfig, KvStore, Mode};
use txfix_stm::chaos::splitmix64;
use txfix_stm::obs::{HistogramSnapshot, ObsSnapshot, SiteSnapshot};
use txfix_xcall::{SimFile, SimFs};

pub const SHARDS: usize = 4;
/// Keys loaded between two checkpoint-and-truncate rounds during set-up.
const LOAD_BATCH: u64 = 1024;
/// Least reopenings of the final crash image.
const FINAL_REOPENS: usize = 5;

#[derive(Clone, Copy, Debug)]
pub struct KvSpec {
    pub keys: u64,
    pub theta: f64,
    pub mix: Mix,
    /// Ops per client per epoch.
    pub quota: u64,
}

/// Hot keys and short ops: 64 keys per index bucket, mostly reads.
pub const KV_HOT: KvSpec = KvSpec {
    keys: 1024,
    theta: 0.99,
    mix: Mix { get: 90, put: 8, delete: 1, scan: 1 },
    quota: 2000,
};

/// Writes beside reads over a large index: 512 keys per bucket.
pub const KV_CHURN: KvSpec = KvSpec {
    keys: 8192,
    theta: 0.7,
    mix: Mix { get: 35, put: 55, delete: 8, scan: 2 },
    quota: 400,
};

struct KvClient {
    base: Client,
    attempts: u64,
    serialized: u64,
    log_len_sum: u64,
    writes: u64,
    history: Option<Vec<Event>>,
}

impl KvClient {
    fn new(history: bool, tracer: Option<Tracer>) -> KvClient {
        KvClient {
            base: Client::new(tracer),
            attempts: 0,
            serialized: 0,
            log_len_sum: 0,
            writes: 0,
            history: history.then(Vec::new),
        }
    }
}

struct Ctx<'a> {
    store: &'a KvStore,
    workload: &'a Workload,
    wals: &'a [Arc<SimFile>],
    seed: u64,
}

fn op(cx: &Ctx, cl: &mut KvClient, c: usize, i: u64) {
    let req = i * CLIENTS as u64 + c as u64 + 1;
    let tr = &mut cl.base.tracer;
    if let Some(t) = tr {
        t.begin("request", req);
    }
    let gen = span(tr, "workload.op", req, || cx.workload.op(cx.seed, c as u64, i));
    let store = cx.store;
    let t0 = Instant::now();
    let (class, done) = match gen {
        WorkloadOp::Get(k) => {
            let r = span(tr, "kvstore.get", req, || store.get(&k));
            (Class::Read, r.map(|r| (r.stats, ModelOp::Get(k), ModelResult::Value(r.value))))
        }
        WorkloadOp::Put(k, v) => {
            let r = span(tr, "kvstore.put", req, || store.put(&k, &v));
            cl.base.user_bytes += (k.len() + v.len()) as u64;
            (Class::Write, r.map(|r| (r.stats, ModelOp::Put(k, v), ModelResult::Value(r.value))))
        }
        WorkloadOp::Delete(k) => {
            let r = span(tr, "kvstore.delete", req, || store.delete(&k));
            cl.base.user_bytes += k.len() as u64;
            (Class::Write, r.map(|r| (r.stats, ModelOp::Delete(k), ModelResult::Value(r.value))))
        }
        WorkloadOp::Scan(draw) => {
            let shard = (draw % SHARDS as u64) as usize;
            let r = span(tr, "kvstore.scan", req, || store.scan(shard));
            (Class::Scan, r.map(|r| (r.stats, ModelOp::Scan, ModelResult::Snapshot(r.value))))
        }
    };
    let ns = t0.elapsed().as_nanos() as u64;
    if let Some(t) = tr {
        t.end();
    }
    cl.base.record(class, ns);
    match done {
        Ok((stats, op, result)) => {
            cl.attempts += stats.attempts;
            cl.serialized += stats.serialized as u64;
            if class == Class::Write && cl.base.tracer.is_some() {
                cl.log_len_sum += cx.wals[stats.shard].len() as u64;
                cl.writes += 1;
            }
            if let Some(h) = &mut cl.history {
                h.push(Event { shard: stats.shard, version: stats.version, op, result });
            }
        }
        Err(_) => cl.base.failed += 1,
    }
}

fn run_epoch(cx: &Ctx, clients: &mut [KvClient], quota: u64, epoch: u64) {
    run_clients(clients, |c, cl| {
        cl.base.start_epoch();
        pin_worker_rng(splitmix64(cx.seed ^ epoch), c);
        for j in 0..quota {
            op(cx, cl, c, epoch * quota + j);
        }
    });
}

fn checkpoint_all(store: &mut KvStore, tr: &mut Option<Tracer>) {
    for s in 0..SHARDS {
        span(tr, "kvstore.checkpoint", 0, || store.checkpoint_and_truncate(s));
    }
}

fn wal_files(fs: &SimFs) -> Vec<Arc<SimFile>> {
    (0..SHARDS)
        .map(|s| fs.open(&format!("kv_shard{s}.wal")).expect("the store keeps one WAL per shard"))
        .collect()
}

struct Loaded {
    fs: Arc<SimFs>,
    store: KvStore,
    wals: Vec<Arc<SimFile>>,
    history: Option<HistoryCheck>,
    problems: Vec<String>,
}

/// Open, bulk-load and warm up one store.
fn setup(spec: &KvSpec, workload: &Workload, seed: u64, traced: bool) -> Loaded {
    let fs = SimFs::new();
    let mut store = KvStore::open(&fs, KvConfig::new(Mode::Hybrid, SHARDS));
    let mut history = traced.then(HistoryCheck::default);
    let mut problems = Vec::new();
    let mut preload = Vec::new();
    for batch in (0..spec.keys).step_by(LOAD_BATCH as usize) {
        for rank in batch..spec.keys.min(batch + LOAD_BATCH) {
            let (k, v) = (format!("k{rank}"), format!("p{:016x}", splitmix64(seed ^ rank)));
            let r = store.put(&k, &v).expect("preload keys and values are tokens");
            if traced {
                let (shard, version) = (r.stats.shard, r.stats.version);
                let (op, result) = (ModelOp::Put(k, v), ModelResult::Value(r.value));
                preload.push(Event { shard, version, op, result });
            }
        }
        checkpoint_all(&mut store, &mut None);
    }
    check_epoch(&mut history, preload, &store, &mut problems);
    let wals = wal_files(&fs);
    let mut warm: Vec<KvClient> = (0..CLIENTS).map(|_| KvClient::new(traced, None)).collect();
    let cx = Ctx { store: &store, workload, wals: &wals, seed };
    run_epoch(&cx, &mut warm, spec.quota, 0);
    check_epoch(&mut history, drain_history(&mut warm), &store, &mut problems);
    checkpoint_all(&mut store, &mut None);
    Loaded { fs, store, wals, history, problems }
}

/// Checks the op history one epoch at a time, so its memory stays
/// bounded. Each epoch's events are replayed by `check_history` on top of
/// the state the store held when the epoch began (entered as one put per
/// key, with the epoch's versions shifted to follow them), and the
/// epoch's writes, applied in version order to that state, must give the
/// state and version the store holds when it ends.
#[derive(Default)]
struct HistoryCheck {
    state: [BTreeMap<String, String>; SHARDS],
    version: [u64; SHARDS],
    checked: usize,
}

impl HistoryCheck {
    /// Check the events since the last boundary against the quiescent
    /// `store`, then take the store's state as the next epoch's start.
    fn epoch(&mut self, events: Vec<Event>, store: &KvStore) -> Result<(), String> {
        let replayed = self.replay(events);
        let mut ok = true;
        for s in 0..SHARDS {
            let (now, version) = (store.shard_snapshot(s), store.shard_version(s));
            ok &= now == self.state[s] && version == self.version[s];
            self.state[s] = now;
            self.version[s] = version;
        }
        replayed?;
        if !ok {
            return Err("the store's state at the epoch's end is not its history's".to_string());
        }
        Ok(())
    }

    fn replay(&mut self, events: Vec<Event>) -> Result<(), String> {
        let mut all =
            Vec::with_capacity(events.len() + self.state.iter().map(|m| m.len()).sum::<usize>());
        for (shard, state) in self.state.iter().enumerate() {
            for (i, (k, v)) in state.iter().enumerate() {
                let op = ModelOp::Put(k.clone(), v.clone());
                let result = ModelResult::Value(None);
                all.push(Event { shard, version: i as u64 + 1, op, result });
            }
        }
        let prefix = all.len();
        for mut e in events {
            let since = e.version.checked_sub(self.version[e.shard]).ok_or_else(|| {
                format!(
                    "shard {}: op observed version {} before the epoch's {}",
                    e.shard, e.version, self.version[e.shard]
                )
            })?;
            e.version = self.state[e.shard].len() as u64 + since;
            all.push(e);
        }
        check_history(&all)?;
        let mut writes: Vec<&Event> = all[prefix..]
            .iter()
            .filter(|e| matches!(e.op, ModelOp::Put(..) | ModelOp::Delete(_)))
            .collect();
        writes.sort_by_key(|e| (e.shard, e.version));
        for e in writes {
            let state = &mut self.state[e.shard];
            match &e.op {
                ModelOp::Put(k, v) => {
                    state.insert(k.clone(), v.clone());
                }
                ModelOp::Delete(k) => {
                    state.remove(k);
                }
                ModelOp::Get(_) | ModelOp::Scan => unreachable!("filtered to writes"),
            }
            self.version[e.shard] += 1;
        }
        self.checked += all.len() - prefix;
        Ok(())
    }
}

fn drain_history(clients: &mut [KvClient]) -> Vec<Event> {
    clients
        .iter_mut()
        .flat_map(|c| c.history.as_mut().map(std::mem::take).unwrap_or_default())
        .collect()
}

fn check_epoch(
    history: &mut Option<HistoryCheck>,
    events: Vec<Event>,
    store: &KvStore,
    problems: &mut Vec<String>,
) {
    if let Some(h) = history {
        if let Err(e) = h.epoch(events, store) {
            problems.push(format!("op history is not linearizable: {e}"));
        }
    }
}

fn snapshots(store: &KvStore) -> Vec<BTreeMap<String, String>> {
    (0..SHARDS).map(|s| store.shard_snapshot(s)).collect()
}

/// A filesystem holding the durable bytes of every file of `fs`.
fn durable_copy(fs: &SimFs) -> Arc<SimFs> {
    let copy = SimFs::new();
    for name in fs.list() {
        let f = copy.open_or_create(&name);
        f.append(&fs.open(&name).expect("listed file exists").durable_snapshot());
        f.sync_all();
    }
    copy
}

/// Open the store over `fs` once and check that it holds exactly `want`
/// in every shard, then time repeated openings (see [`parallel_samples`]).
#[allow(clippy::too_many_arguments)]
fn reopen(
    fs: &Arc<SimFs>,
    cfg: KvConfig,
    want: &[BTreeMap<String, String>],
    min_reps: usize,
    what: &str,
    tr: &mut Option<Tracer>,
    times: &mut Vec<f64>,
    problems: &mut Vec<String>,
) {
    let store = span(tr, "kvstore.open", 0, || KvStore::open(fs, cfg));
    for (s, w) in want.iter().enumerate() {
        let got = store.shard_snapshot(s);
        if &got != w {
            let lost = w.iter().filter(|(k, v)| got.get(*k) != Some(*v)).count();
            let extra = got.keys().filter(|k| !w.contains_key(*k)).count();
            problems.push(format!(
                "{what}, shard {s}: {lost} acknowledged keys lost or stale, {extra} keys \
                 resurrected"
            ));
        }
    }
    times.extend(parallel_samples(min_reps, || KvStore::open(fs, cfg)));
}

/// Run WAL recovery over every shard log of `fs` once, then time repeated
/// passes; returns the committed transactions a pass finds.
fn recover_wals(
    fs: &SimFs,
    min_reps: usize,
    tr: &mut Option<Tracer>,
    times: &mut Vec<f64>,
) -> usize {
    let wals = wal_files(fs);
    let pass = || wals.iter().map(|f| txfix_wal::recover(f).committed.len()).sum::<usize>();
    let committed = span(tr, "wal.recover", 0, pass);
    times.extend(parallel_samples(min_reps, pass));
    committed
}

fn pool_totals(store: &KvStore) -> PoolStats {
    let mut t = PoolStats::default();
    for s in 0..SHARDS {
        let p = store.pool_stats(s);
        t.hits += p.hits;
        t.misses += p.misses;
        t.evictions += p.evictions;
        t.flushed_pages += p.flushed_pages;
    }
    t
}

fn site_sum(o: &ObsSnapshot, names: &[&str], f: fn(&SiteSnapshot) -> f64) -> f64 {
    o.sites.iter().filter(|s| names.contains(&s.name)).map(f).sum()
}

/// Seconds summed over a log₂ latency histogram, each sample taken at its
/// bucket's midpoint (so within a factor of 1.5 per sample).
fn hist_secs(h: &HistogramSnapshot) -> f64 {
    let mid = |i: usize| if i == 0 { 0.0 } else { 1.5 * (1u64 << (i - 1)) as f64 };
    h.counts.iter().enumerate().map(|(i, &c)| c as f64 * mid(i)).sum::<f64>() / 1e9
}

pub fn measure(spec: &KvSpec, seed: u64, budget: Budget, traced: bool) -> Phase {
    let workload = Workload::new(WorkloadCfg {
        keys: spec.keys,
        theta: spec.theta,
        mix: spec.mix,
        ..WorkloadCfg::default()
    });
    let t = Instant::now();
    let Loaded { fs, mut store, wals, mut history, mut problems } =
        setup(spec, &workload, seed, traced);
    let mut setups = vec![t.elapsed().as_secs_f64()];

    let origin = Instant::now();
    let mut main_tr = traced.then(|| Tracer::new(origin, 0));
    let mut clients: Vec<KvClient> = (0..CLIENTS)
        .map(|c| KvClient::new(traced, traced.then(|| Tracer::new(origin, c as u64 + 1))))
        .collect();
    let mut notes = Vec::new();
    let pool0 = pool_totals(&store);
    let probe = StmProbe::start(traced);
    let (mut wal_bytes, mut ckpt_s, mut ckpt_count) = (0u64, 0.0, 0u64);
    let cfg = store.config();
    let (mut reopens, mut recovers) = (Vec::new(), Vec::new());
    let mut clock = EpochClock::start(budget);
    loop {
        let e = clock.begin_epoch();
        run_epoch(
            &Ctx { store: &store, workload: &workload, wals: &wals, seed },
            &mut clients,
            spec.quota,
            e,
        );
        clock.absorb(clients.iter().map(|c| &c.base));
        wal_bytes += wals.iter().map(|f| f.len() as u64).sum::<u64>();
        if history.is_some() {
            clock.exclude(|| {
                check_epoch(&mut history, drain_history(&mut clients), &store, &mut problems)
            });
        }
        if clock.sample_due() {
            // Every acknowledged write is synced at an epoch's end, so the
            // durable bytes are a crash image: the last checkpoints plus
            // one epoch of WAL.
            clock.exclude(|| {
                let image = durable_copy(&fs);
                let want = snapshots(&store);
                let what = format!("crash image after epoch {e}");
                reopen(&image, cfg, &want, 1, &what, &mut main_tr, &mut reopens, &mut problems);
                recover_wals(&image, 1, &mut main_tr, &mut recovers);
            });
        }
        // A traced phase reports no `setup_s`, and a set-up there would
        // add its transactions to the STM counters.
        if !traced && clock.setup_due() {
            clock.exclude(|| {
                let t = Instant::now();
                let again = setup(spec, &workload, seed, false);
                setups.push(t.elapsed().as_secs_f64());
                drop(again);
            });
        }
        if clock.done() {
            break;
        }
        let t = Instant::now();
        checkpoint_all(&mut store, &mut main_tr);
        ckpt_s += t.elapsed().as_secs_f64();
        ckpt_count += SHARDS as u64;
    }
    let (epochs, elapsed_s, windows) = clock.finish();
    let mut layer = Layer::default();
    let site_obs = probe.finish(&mut layer);
    let pool = pool_totals(&store);

    // The last acknowledged state, then a seeded crash that keeps a random
    // subset of unsynced blocks, and repeated reopenings.
    let want = snapshots(&store);
    let live_keys: usize = want.iter().map(|m| m.len()).sum();
    let live_bytes: usize = want.iter().flatten().map(|(k, v)| k.len() + v.len()).sum();
    let files: Vec<Arc<SimFile>> =
        fs.list().iter().map(|n| fs.open(n).expect("listed file exists")).collect();
    let durable_bytes: usize = files.iter().map(|f| f.durable_snapshot().len()).sum();
    drop(store);
    fs.crash(splitmix64(seed ^ 0xC4A5));
    let stored_bytes: usize = files.iter().map(|f| f.len()).sum();
    reopen(
        &fs,
        cfg,
        &want,
        FINAL_REOPENS,
        "final crash",
        &mut main_tr,
        &mut reopens,
        &mut problems,
    );
    let replayed = recover_wals(&fs, FINAL_REOPENS, &mut main_tr, &mut recovers);

    if let Some(site_obs) = site_obs {
        let sites = |names: &[&str], f: fn(&SiteSnapshot) -> f64| site_sum(&site_obs, names, f);
        let class = |k: Class| merged(windows.iter().map(|w| &w.lat[k as usize]));
        let (reads, writes) = (class(Class::Read), class(Class::Write));
        let ops: u64 = clients.iter().map(|c| c.base.ops.iter().sum::<u64>()).sum();
        let write_commits = sites(&["kv_put", "kv_delete"], |s| s.commits as f64);
        let user_bytes: u64 = clients.iter().map(|c| c.base.user_bytes).sum();
        let secs = |name| span_secs(clients.iter().map(|c| &c.base), name);
        layer.set("stm.read_s", sites(&["kv_get"], |s| hist_secs(&s.latency_ns)));
        layer.set("stm.write_s", sites(&["kv_put", "kv_delete"], |s| hist_secs(&s.latency_ns)));
        layer.set("stm.scan_s", sites(&["kv_scan"], |s| hist_secs(&s.latency_ns)));
        layer.set("kvstore.read_s", secs("kvstore.get"));
        layer.set("kvstore.write_s", secs("kvstore.put") + secs("kvstore.delete"));
        layer.set("kvstore.scan_s", secs("kvstore.scan"));
        layer
            .set("kvstore.read_p99_us", layer_pct(&reads, 0.99, "kvstore.read_p99_us", &mut notes));
        layer.set(
            "kvstore.write_p99_us",
            layer_pct(&writes, 0.99, "kvstore.write_p99_us", &mut notes),
        );
        let attempts: u64 = clients.iter().map(|c| c.attempts).sum();
        layer.set("kvstore.attempts_per_op", attempts as f64 / ops.max(1) as f64);
        layer.set(
            "kvstore.serialized_ops",
            clients.iter().map(|c| c.serialized).sum::<u64>() as f64,
        );
        layer.set(
            "kvstore.keys_per_bucket",
            live_keys as f64 / (SHARDS * cfg.buckets_per_shard) as f64,
        );
        layer.set("kvstore.ckpt_s", ckpt_s);
        layer.set("kvstore.ckpt_count", ckpt_count as f64);
        let (hits, misses) = (pool.hits - pool0.hits, pool.misses - pool0.misses);
        layer.set("page.hits", hits as f64);
        layer.set("page.misses", misses as f64);
        layer.set("page.evictions", (pool.evictions - pool0.evictions) as f64);
        layer.set("page.flushed_pages", (pool.flushed_pages - pool0.flushed_pages) as f64);
        layer.set("page.hit_rate", hits as f64 / (hits + misses).max(1) as f64);
        layer.set("wal.bytes_appended", wal_bytes as f64);
        layer.set("wal.bytes_per_user_byte", wal_bytes as f64 / user_bytes.max(1) as f64);
        layer.set("wal.recover_s", trimmed_mean(&recovers));
        layer.set("wal.txns_replayed", replayed as f64);
        let xcalls = sites(&["kv_put", "kv_delete"], |s| s.xcalls as f64);
        layer.set("xcall.ops_per_write", xcalls / write_commits.max(1.0));
        let (len_sum, n): (u64, u64) =
            clients.iter().fold((0, 0), |(s, n), c| (s + c.log_len_sum, n + c.writes));
        layer.set("xcall.log_len_per_write_bytes", len_sum as f64 / n.max(1) as f64);
        layer.set("xcall.durable_bytes", durable_bytes as f64);
        layer.set("history.events_checked", history.map_or(0, |h| h.checked) as f64);
    }
    notes.push(format!(
        "kv: {live_keys} live keys, {live_bytes} live bytes, {stored_bytes} stored bytes, \
         {wal_bytes} WAL bytes appended, {} reopenings",
        reopens.len()
    ));

    Phase {
        clients: clients.into_iter().map(|c| c.base).collect(),
        windows,
        elapsed_s,
        epochs,
        setup_s: trimmed_mean(&setups),
        recover_s: trimmed_mean(&reopens),
        space_amp: stored_bytes as f64 / live_bytes.max(1) as f64,
        problems,
        layer,
        tracer: main_tr,
        notes,
    }
}
