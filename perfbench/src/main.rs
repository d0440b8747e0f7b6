//! Wall-clock benchmark of the KV store and the STM.
//!
//! ```text
//! perfbench --workload <kv_hot|kv_churn|stm_bank> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one human-readable line per metric (percentiles with their
//! sample counts), then, as the last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics of [`E2E`]; `--trace 1` runs the same measurement
//! untraced and then traced, and reports the per-layer metrics of
//! [`LAYER`] plus the tracing overhead. See `perfbench/README.md`.

mod bank;
mod hist;
mod kv;
#[cfg(test)]
mod selftest;
mod trace;

use hist::Hist;
use std::time::{Duration, Instant};
use trace::Tracer;
use txfix_core::json::Json;
use txfix_stm::obs::{self, ObsSnapshot, SiteSnapshot};
use txfix_stm::{quiescent_stats, StatsSnapshot};

/// Closed-loop client threads, one per vCPU of the reference host.
pub const CLIENTS: usize = 2;

/// End-to-end metrics, `(name, unit)`, reported by every workload.
pub const E2E: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("p99_us", "us"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("scan_p50_us", "us"),
    ("setup_s", "s"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("space_amp", "ratio"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, reported by every workload's traced
/// run; a layer a workload does not touch reports 0.
pub const LAYER: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("stm.commits", "count"),
    ("stm.abort_rate", "ratio"),
    ("stm.aborts_validation", "count"),
    ("stm.aborts_orec", "count"),
    ("stm.escalations", "count"),
    ("stm.irrevocable", "count"),
    ("stm.backoff_s", "s"),
    ("stm.read_s", "s"),
    ("stm.write_s", "s"),
    ("stm.scan_s", "s"),
    ("kvstore.read_s", "s"),
    ("kvstore.write_s", "s"),
    ("kvstore.scan_s", "s"),
    ("kvstore.read_p99_us", "us"),
    ("kvstore.write_p99_us", "us"),
    ("kvstore.attempts_per_op", "ratio"),
    ("kvstore.serialized_ops", "count"),
    ("kvstore.keys_per_bucket", "count"),
    ("kvstore.ckpt_s", "s"),
    ("kvstore.ckpt_count", "count"),
    ("page.hits", "count"),
    ("page.misses", "count"),
    ("page.evictions", "count"),
    ("page.flushed_pages", "count"),
    ("page.hit_rate", "ratio"),
    ("wal.bytes_appended", "bytes"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.recover_s", "s"),
    ("wal.txns_replayed", "count"),
    ("xcall.ops_per_write", "ratio"),
    ("xcall.log_len_per_write_bytes", "bytes"),
    ("xcall.durable_bytes", "bytes"),
    ("txlock.acquisitions", "count"),
    ("txlock.revocations", "count"),
    ("window.first_write_p50_us", "us"),
    ("window.last_write_p50_us", "us"),
    ("history.events_checked", "count"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    KvHot,
    KvChurn,
    StmBank,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::KvHot, Workload::KvChurn, Workload::StmBank];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvHot => "kv_hot",
            Workload::KvChurn => "kv_churn",
            Workload::StmBank => "stm_bank",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::KvHot => Spec::Kv(kv::KV_HOT),
            Workload::KvChurn => Spec::Kv(kv::KV_CHURN),
            Workload::StmBank => Spec::Bank(bank::STM_BANK),
        }
    }
}

/// A workload's shape.
#[derive(Clone, Copy, Debug)]
pub enum Spec {
    Kv(kv::KvSpec),
    Bank(bank::BankSpec),
}

/// How long the timed phase runs: whole epochs until a wall-clock budget
/// is spent, or a fixed number of epochs (the self-test's deterministic
/// shape).
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Seconds(f64),
    Epochs(u64),
}

impl Budget {
    /// The budget of each of a traced invocation's two phases, so that it
    /// takes no longer than an untraced one.
    fn halved(self) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / 2.0),
            epochs => epochs,
        }
    }
}

/// The timed phase is cut into this many equal windows; every end-to-end
/// timing is the median of its per-window values, so a stall of the
/// shared host that spans less than half the windows does not move it.
pub const WINDOWS: usize = 8;

/// Times per timed phase that recovery is measured on the state of the
/// moment, spread evenly so that `recover_s` samples the host across the
/// whole phase, as the windows do.
pub const SAMPLES: usize = 32;

/// Set-ups per run: one before the timed phase, the others spread evenly
/// over it like the recovery samples, so that `setup_s` sees the host
/// over the whole run and not only at its start. Divides [`SAMPLES`].
pub const SETUPS: usize = 16;

/// Ops, wall time, latencies and STM aborts of the epochs that started in
/// one window, and the host's CPU ticks over them (see [`cpu_ticks`]).
pub struct Window {
    pub ops: u64,
    pub secs: f64,
    pub lat: [Hist; 3],
    pub aborts: u64,
    pub ticks: CpuTicks,
}

/// The machine's CPU time, all CPUs, in clock ticks: `total` of every
/// kind and `steal`, the time the hypervisor ran someone else on our
/// vCPUs.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    pub total: u64,
    pub steal: u64,
}

/// The first line of `/proc/stat`, or zeros where it cannot be read.
pub fn cpu_ticks() -> CpuTicks {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where the guest times are already counted in user and nice.
    CpuTicks { total: fields.iter().take(8).sum(), steal: fields.get(7).copied().unwrap_or(0) }
}

/// Runs the timed phase's clock: numbers the epochs, files each into its
/// window and decides when the phase ends. Time spent in [`exclude`]
/// (after-epoch checks) is charged to no window.
///
/// [`exclude`]: EpochClock::exclude
pub struct EpochClock {
    budget: Budget,
    start: Instant,
    excluded_s: f64,
    epochs: u64,
    epoch_start_s: f64,
    window: usize,
    slot: Option<usize>,
    sample_due: bool,
    setup_due: bool,
    stm: StatsSnapshot,
    ticks: CpuTicks,
    windows: Vec<Window>,
}

impl EpochClock {
    pub fn start(budget: Budget) -> EpochClock {
        EpochClock {
            budget,
            start: Instant::now(),
            excluded_s: 0.0,
            epochs: 0,
            epoch_start_s: 0.0,
            window: 0,
            slot: None,
            sample_due: false,
            setup_due: false,
            stm: quiescent_stats(),
            ticks: cpu_ticks(),
            windows: (0..WINDOWS)
                .map(|_| Window {
                    ops: 0,
                    secs: 0.0,
                    lat: [Hist::new(), Hist::new(), Hist::new()],
                    aborts: 0,
                    ticks: CpuTicks::default(),
                })
                .collect(),
        }
    }

    fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.excluded_s
    }

    fn close_epoch(&mut self) -> f64 {
        let now = self.now_s();
        if self.epochs > 0 {
            self.windows[self.window].secs += now - self.epoch_start_s;
        }
        now
    }

    /// Start the next timed epoch and return its number; epoch 0 is the
    /// warm-up. An epoch runs until the next one starts.
    pub fn begin_epoch(&mut self) -> u64 {
        let now = self.close_epoch();
        let share = match self.budget {
            Budget::Seconds(s) => now / s,
            Budget::Epochs(n) => self.epochs as f64 / n as f64,
        };
        self.window = ((share * WINDOWS as f64) as usize).min(WINDOWS - 1);
        let slot = ((share * SAMPLES as f64) as usize).min(SAMPLES - 1);
        self.sample_due = self.slot != Some(slot);
        self.setup_due = self.sample_due && slot > 0 && slot.is_multiple_of(SAMPLES / SETUPS);
        self.slot = Some(slot);
        self.epochs += 1;
        self.epoch_start_s = now;
        self.epochs
    }

    /// Whether recovery should be sampled after the current epoch: true
    /// for the first epoch of each of the [`SAMPLES`] slots.
    pub fn sample_due(&self) -> bool {
        self.sample_due
    }

    /// Whether a fresh set-up should be timed after the current epoch:
    /// true for the first epoch of every other sample slot but the first
    /// (see [`SETUPS`]).
    pub fn setup_due(&self) -> bool {
        self.setup_due
    }

    /// Fold the clients' epoch latencies, and the STM aborts since the
    /// last call, into the current window. Called with the clients
    /// stopped.
    pub fn absorb<'a>(&mut self, clients: impl IntoIterator<Item = &'a Client>) {
        let (stm, ticks) = (quiescent_stats(), cpu_ticks());
        let w = &mut self.windows[self.window];
        w.aborts += stm.delta(&self.stm).total_aborts();
        w.ticks.total += ticks.total.saturating_sub(self.ticks.total);
        w.ticks.steal += ticks.steal.saturating_sub(self.ticks.steal);
        self.stm = stm;
        self.ticks = ticks;
        for c in clients {
            for (acc, h) in w.lat.iter_mut().zip(&c.lat) {
                acc.merge(h);
                w.ops += h.count();
            }
        }
    }

    /// Run `f` without charging its time, STM aborts or CPU ticks to the
    /// timed phase. Called with the clients stopped.
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.excluded_s += t.elapsed().as_secs_f64();
        self.stm = quiescent_stats();
        self.ticks = cpu_ticks();
        out
    }

    pub fn done(&self) -> bool {
        match self.budget {
            Budget::Seconds(s) => self.now_s() >= s,
            Budget::Epochs(n) => self.epochs >= n,
        }
    }

    /// End the timed phase: `(epochs, charged seconds, windows)`.
    pub fn finish(mut self) -> (u64, f64, Vec<Window>) {
        let elapsed = self.close_epoch();
        (self.epochs, elapsed, self.windows)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    Scan,
}

/// One closed-loop client's measurements. Latencies cover the current
/// epoch only (the clock folds them into windows); the histograms are
/// allocated before the timed loop starts.
pub struct Client {
    pub lat: [Hist; 3],
    pub ops: [u64; 3],
    pub user_bytes: u64,
    pub failed: u64,
    pub tracer: Option<Tracer>,
}

impl Client {
    pub fn new(tracer: Option<Tracer>) -> Client {
        Client {
            lat: [Hist::new(), Hist::new(), Hist::new()],
            ops: [0; 3],
            user_bytes: 0,
            failed: 0,
            tracer,
        }
    }

    pub fn start_epoch(&mut self) {
        for h in &mut self.lat {
            h.clear();
        }
    }

    #[inline]
    pub fn record(&mut self, class: Class, ns: u64) {
        self.lat[class as usize].record(ns);
        self.ops[class as usize] += 1;
    }
}

/// Run `f(client_index, client)` on one scoped thread per client and wait
/// for all of them.
pub fn run_clients<C: Send>(clients: &mut [C], f: impl Fn(usize, &mut C) + Sync) {
    std::thread::scope(|s| {
        for (i, c) in clients.iter_mut().enumerate() {
            let f = &f;
            s.spawn(move || f(i, c));
        }
    });
}

/// Seconds the clients' recorders spent in spans named `name`.
pub fn span_secs<'a>(clients: impl IntoIterator<Item = &'a Client>, name: &str) -> f64 {
    clients.into_iter().filter_map(|c| c.tracer.as_ref()).map(|t| t.secs(name)).sum()
}

pub fn merged<'a>(hists: impl IntoIterator<Item = &'a Hist>) -> Hist {
    let mut h = Hist::new();
    for x in hists {
        h.merge(x);
    }
    h
}

/// Each recovery sample repeats its measurement on every client thread
/// until at least this long has been spent on it.
pub const SAMPLE_TIME: Duration = Duration::from_millis(40);

/// Time `f` on every client thread at once, each running it at least
/// `min_reps` times and for [`SAMPLE_TIME`]; returns every run's seconds.
/// Recovery is timed with all vCPUs busy, as they are in the timed phase:
/// on a shared host a lone thread's speed swings more than that of two
/// busy ones, likely with whether another tenant gets its core's idle
/// sibling.
pub fn parallel_samples<T>(min_reps: usize, f: impl Fn() -> T + Sync) -> Vec<f64> {
    let mut times = vec![Vec::new(); CLIENTS];
    run_clients(&mut times, |_, times| {
        let start = Instant::now();
        while times.len() < min_reps || start.elapsed() < SAMPLE_TIME {
            let t = Instant::now();
            let out = f();
            times.push(t.elapsed().as_secs_f64());
            drop(out);
        }
    });
    times.concat()
}

/// Mean of `xs` without its lowest and highest tenth. Short timings on
/// the shared host are bimodal, which makes their median jump between the
/// modes from run to run; the trimmed mean moves smoothly with the mix.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    assert!(!kept.is_empty(), "mean of nothing");
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-layer metric values, keyed by the names in [`LAYER`]; unset
/// metrics stay 0.
pub struct Layer {
    values: Vec<f64>,
}

impl Default for Layer {
    fn default() -> Layer {
        Layer { values: vec![0.0; LAYER.len()] }
    }
}

impl Layer {
    pub fn set(&mut self, name: &str, value: f64) {
        let i = LAYER.iter().position(|(n, _)| *n == name).expect("metric is listed in LAYER");
        self.values[i] = value;
    }
}

/// The STM's counters over a timed phase: the runtime's global counters,
/// read at quiescent points, and in a traced phase the `obs` registry,
/// enabled for that phase only.
pub struct StmProbe {
    start: StatsSnapshot,
    traced: bool,
}

impl StmProbe {
    pub fn start(traced: bool) -> StmProbe {
        let start = quiescent_stats();
        if traced {
            obs::reset();
            obs::enable();
        }
        StmProbe { start, traced }
    }

    /// Stop recording. In a traced phase, set the `stm.*` and `txlock.*`
    /// counters and return the per-site registry.
    pub fn finish(self, layer: &mut Layer) -> Option<ObsSnapshot> {
        if !self.traced {
            return None;
        }
        obs::disable();
        let sites = obs::snapshot();
        let stm = quiescent_stats().delta(&self.start);
        let aborts = stm.total_aborts();
        layer.set("stm.commits", stm.commits as f64);
        layer.set("stm.abort_rate", aborts as f64 / (stm.commits + aborts).max(1) as f64);
        layer.set("stm.aborts_validation", stm.conflicts_validation as f64);
        layer.set("stm.aborts_orec", stm.conflicts_orec as f64);
        layer.set("stm.escalations", stm.escalations as f64);
        layer.set("stm.irrevocable", stm.irrevocable_entries as f64);
        let total = |f: fn(&SiteSnapshot) -> u64| sites.sites.iter().map(f).sum::<u64>() as f64;
        layer.set("stm.backoff_s", total(|s| s.backoff_ns) / 1e9);
        layer.set("txlock.acquisitions", total(|s| s.lock_acquisitions));
        layer.set("txlock.revocations", total(|s| s.lock_revocations));
        Some(sites)
    }
}

/// One measured phase: setup, the timed epochs and the after-run checks.
pub struct Phase {
    pub clients: Vec<Client>,
    pub windows: Vec<Window>,
    pub elapsed_s: f64,
    pub epochs: u64,
    pub setup_s: f64,
    pub recover_s: f64,
    pub space_amp: f64,
    /// Check failures, each counted as one failed op.
    pub problems: Vec<String>,
    /// Filled by traced phases only.
    pub layer: Layer,
    pub tracer: Option<Tracer>,
    pub notes: Vec<String>,
}

impl Phase {
    pub fn ops(&self) -> u64 {
        self.clients.iter().map(|c| c.ops.iter().sum::<u64>()).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum::<u64>() + self.problems.len() as u64
    }

    pub fn busy_windows(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter().filter(|w| w.ops > 0)
    }

    /// Median over windows of ops per second.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.busy_windows().map(|w| w.ops as f64 / w.secs).collect::<Vec<_>>())
    }

    /// Latencies of `classes` over the whole timed phase.
    pub fn hist(&self, classes: &[Class]) -> Hist {
        merged(self.windows.iter().flat_map(|w| classes.iter().map(|&k| &w.lat[k as usize])))
    }

    /// Median over windows of the `q` percentile of `classes`, in µs.
    /// Windows too small to support it are skipped, and when none can,
    /// the whole phase's value is used; both go to `notes`.
    pub fn window_pct(
        &self,
        classes: &[Class],
        q: f64,
        what: &str,
        notes: &mut Vec<String>,
    ) -> Result<f64, String> {
        let per_window: Vec<f64> = self
            .busy_windows()
            .filter_map(|w| merged(classes.iter().map(|&k| &w.lat[k as usize])).percentile(q))
            .map(|p| p.value / 1000.0)
            .collect();
        let overall = pct_us(&self.hist(classes), q, what, notes)?;
        if per_window.is_empty() {
            notes.push(format!("{what}: no window supports p{}; whole phase used", q * 100.0));
            return Ok(overall);
        }
        let m = median(&per_window);
        notes.push(format!(
            "{what} = {m:.3} us (median of {} windows; whole phase {overall:.3} us)",
            per_window.len()
        ));
        Ok(m)
    }

    pub fn class_ops(&self, class: Class) -> u64 {
        self.clients.iter().map(|c| c.ops[class as usize]).sum()
    }

    pub fn user_bytes(&self) -> u64 {
        self.clients.iter().map(|c| c.user_bytes).sum()
    }

    /// All client recorders merged with the main thread's.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        let mut main = self.tracer.take()?;
        for c in &mut self.clients {
            if let Some(t) = c.tracer.take() {
                main.merge(t);
            }
        }
        Some(main)
    }
}

/// The percentile `q` of `h` in microseconds, with its support recorded
/// in `notes`; an error when the sample is too small to support it.
pub fn pct_us(h: &Hist, q: f64, what: &str, notes: &mut Vec<String>) -> Result<f64, String> {
    let p = h
        .percentile(q)
        .ok_or_else(|| format!("{what}: {} samples cannot support p{}", h.count(), q * 100.0))?;
    let us = p.value / 1000.0;
    notes.push(format!(
        "{what} = {us:.3} us (p{}, n={}, beyond={})",
        q * 100.0,
        p.samples,
        p.beyond
    ));
    Ok(us)
}

/// Like [`pct_us`] for a per-layer metric: an unsupported percentile
/// reads 0 and the reason goes to `notes`.
pub fn layer_pct(h: &Hist, q: f64, what: &str, notes: &mut Vec<String>) -> f64 {
    pct_us(h, q, what, notes).unwrap_or_else(|e| {
        notes.push(e);
        0.0
    })
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What one invocation reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Deterministic counts of the measured phase: ops per class and user
    /// bytes written (what the self-test compares across runs).
    pub counts: [u64; 4],
    pub trace: Option<Json>,
}

fn measure(spec: Spec, seed: u64, budget: Budget, traced: bool) -> Phase {
    match spec {
        Spec::Kv(s) => kv::measure(&s, seed, budget, traced),
        Spec::Bank(s) => bank::measure(&s, seed, budget, traced),
    }
}

fn e2e_metrics(p: &Phase, notes: &mut Vec<String>) -> Result<Vec<f64>, String> {
    use Class::*;
    let attempted = p.ops().max(1);
    // Per-window figures tell a slow host (every op slower, abort rate
    // flat or falling) from contention (abort rate up).
    let mut per_window = |what: &str, f: fn(&Window) -> String| {
        let row: Vec<String> = p.busy_windows().map(f).collect();
        notes.push(format!("{what} per window: {}", row.join(" ")));
    };
    per_window("write p50 (us)", |w| match w.lat[Write as usize].percentile(0.5) {
        Some(pct) => format!("{:.3}", pct.value / 1000.0),
        None => "-".to_string(),
    });
    per_window("ops/s", |w| format!("{:.0}", w.ops as f64 / w.secs));
    per_window("STM aborts per 1000 ops", |w| {
        format!("{:.2}", w.aborts as f64 * 1e3 / w.ops as f64)
    });
    per_window("CPU steal %", |w| {
        format!("{:.1}", w.ticks.steal as f64 * 100.0 / w.ticks.total.max(1) as f64)
    });
    notes.push(format!(
        "ops_per_s = {:.1} (median of windows; whole phase {:.1})",
        p.ops_per_s(),
        p.ops() as f64 / p.elapsed_s
    ));
    Ok(vec![
        p.ops_per_s(),
        p.window_pct(&[Read, Write, Scan], 0.99, "p99_us", notes)?,
        p.window_pct(&[Read], 0.5, "read_p50_us", notes)?,
        p.window_pct(&[Write], 0.5, "write_p50_us", notes)?,
        p.window_pct(&[Scan], 0.5, "scan_p50_us", notes)?,
        p.setup_s,
        p.recover_s,
        peak_rss_mib()?,
        p.space_amp,
        1.0 - p.failed() as f64 / attempted as f64,
    ])
}

/// Run one workload and collect what the invocation reports.
pub fn run(
    w: Workload,
    spec: Spec,
    seed: u64,
    budget: Budget,
    trace: bool,
) -> Result<Outcome, String> {
    let budget = if trace { budget.halved() } else { budget };
    let plain = measure(spec, seed, budget, false);
    let mut notes = vec![format!(
        "{}: {} ops in {} epochs over {:.3} s, {CLIENTS} clients",
        w.name(),
        plain.ops(),
        plain.epochs,
        plain.elapsed_s,
    )];
    notes.extend(plain.notes.iter().cloned());
    let e2e = e2e_metrics(&plain, &mut notes)?;
    let counts = |p: &Phase| {
        [
            p.class_ops(Class::Read),
            p.class_ops(Class::Write),
            p.class_ops(Class::Scan),
            p.user_bytes(),
        ]
    };
    let mut out = Outcome {
        attempted: plain.ops(),
        failed: plain.failed(),
        problems: plain.problems.clone(),
        notes,
        metrics: E2E.iter().zip(e2e).map(|(&(n, u), v)| (n, v, u)).collect(),
        counts: counts(&plain),
        trace: None,
    };
    if trace {
        let mut traced = measure(spec, seed, budget, true);
        out.attempted += traced.ops();
        out.failed += traced.failed();
        out.problems.extend(traced.problems.iter().cloned());
        out.notes.extend(traced.notes.iter().cloned());
        out.counts = counts(&traced);
        let tracer = traced.take_tracer().expect("a traced phase records spans");
        let mut layer = std::mem::take(&mut traced.layer);
        let notes = &mut out.notes;
        layer.set("workload.gen_s", tracer.secs("workload.op"));
        // From the untraced phase, as `write_p50_us` itself is.
        let busy: Vec<&Window> = plain.busy_windows().collect();
        let write_p50 = |w: &Window, what, notes: &mut Vec<String>| {
            layer_pct(&w.lat[Class::Write as usize], 0.5, what, notes)
        };
        let first = write_p50(busy[0], "window.first_write_p50_us", notes);
        layer.set("window.first_write_p50_us", first);
        let last = write_p50(busy[busy.len() - 1], "window.last_write_p50_us", notes);
        layer.set("window.last_write_p50_us", last);
        layer.set("trace.untraced_ops_per_s", plain.ops_per_s());
        layer.set("trace.traced_ops_per_s", traced.ops_per_s());
        layer.set("trace.overhead", plain.ops_per_s() / traced.ops_per_s());
        layer.set("trace.spans", tracer.spans() as f64);
        out.notes.push(format!("peak_rss_mb over both phases = {:.3}", peak_rss_mib()?));
        out.metrics = LAYER.iter().zip(layer.values).map(|(&(n, u), v)| (n, v, u)).collect();
        out.trace = Some(Json::obj([
            ("workload", Json::str(w.name())),
            ("seed", Json::int(seed)),
            ("trace", tracer.to_json()),
        ]));
    }
    if let Some((name, v, _)) = out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} is not a finite number: {v}"));
    }
    Ok(out)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn write_trace(w: Workload, seed: u64, json: &Json) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}-seed{seed}.json", w.name()));
    std::fs::write(&path, json.to_string()).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <kv_hot|kv_churn|stm_bank> --seed <n> --seconds <s> \
                 --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let out = match run(w, w.spec(), args.seed, Budget::Seconds(args.seconds), args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for line in &out.notes {
        println!("# {line}");
    }
    for p in &out.problems {
        println!("# CHECK FAILED: {p}");
    }
    if let Some(json) = &out.trace {
        match write_trace(args.workload, args.seed, json) {
            Ok(path) => println!("# spans written to {path}"),
            Err(e) => println!("# could not write spans: {e}"),
        }
    }
    for (name, value, unit) in &out.metrics {
        println!("# {name} = {value} {unit}");
    }
    let metrics = Json::obj(out.metrics.iter().map(|&(name, value, unit)| {
        (name, Json::obj([("value", Json::Number(value)), ("unit", Json::str(unit))]))
    }));
    let result = Json::obj([
        ("correct", Json::Bool(out.problems.is_empty() && out.failed == 0)),
        ("attempted", Json::int(out.attempted)),
        ("failed", Json::int(out.failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
}
