//! `stm_bank`: pure STM, no store, WAL or files in the timed phase.
//!
//! Accounts are `TVar<i64>`s drawn Zipfian, so a few are hot. Each client
//! mixes two-account transfers (writes) with single-account balance reads
//! and, every `2 × accounts` ops, a read-only audit of every account —
//! the long reader beside short writers that validation and the
//! escalation ladder exist for. Every audit, and the final total, must
//! conserve money.
//!
//! The traffic is taken from the repository's other workloads rather
//! than tuned here: the key skew and the read:write mix are `kv_churn`'s
//! (θ = 0.7; gets 35 : puts and deletes 63), so the bank is that traffic
//! with the store taken away; and audits read as many accounts per op as
//! the chaos harness's bank does (8 accounts every 16 ops), that is, one
//! audit of all accounts every `2 × accounts` ops.
//!
//! The bank has no files, so `recover_s` and `space_amp` measure its
//! snapshot instead: after the timed phase the balances are encoded in
//! the store's checkpoint format, and recovery decodes that image,
//! rebuilds the accounts and audits them.

use std::time::Instant;

use crate::kv::KV_CHURN;
use crate::trace::{span, Tracer};
use crate::{
    parallel_samples, run_clients, span_secs, trimmed_mean, Budget, Class, Client, EpochClock,
    Layer, Phase, StmProbe, CLIENTS,
};
use txfix_bench::pool::pin_worker_rng;
use txfix_bench::workload::Zipfian;
use txfix_kvstore::page::{decode_checkpoint, encode_checkpoint, Checkpoint};
use txfix_stm::chaos::splitmix64;
use txfix_stm::{EscalationPolicy, StmResult, TVar, Txn, TxnBuilder};

const INITIAL: i64 = 1000;
/// Least restorations of the final snapshot.
const FINAL_RESTORES: usize = 5;

#[derive(Clone, Copy, Debug)]
pub struct BankSpec {
    pub accounts: usize,
    pub theta: f64,
    /// Ops per client per epoch.
    pub quota: u64,
}

/// Balance reads : transfers among the ops that are not audits, as
/// `kv_churn`'s gets : puts + deletes.
const READS: u64 = KV_CHURN.mix.get as u64;
const TRANSFERS: u64 = KV_CHURN.mix.put as u64 + KV_CHURN.mix.delete as u64;

/// The quota is about 50 ms of ops, so that starting an epoch's client
/// threads costs under 0.1 % of it, and each client audits about 24 times
/// per epoch.
pub const STM_BANK: BankSpec = BankSpec { accounts: 1024, theta: KV_CHURN.theta, quota: 50_000 };

enum BankOp {
    Balance(usize),
    Transfer(usize, usize, i64),
    Audit,
}

struct Gen {
    zipf: Zipfian,
    seed: u64,
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Gen {
    /// Op `i` of client `c` — a pure function of the seed.
    fn op(&self, c: usize, i: u64) -> BankOp {
        // Every client audits once per `2 × accounts` of its ops, half an
        // interval apart from the other client.
        let every = 2 * self.zipf.len() as u64;
        if (i + c as u64 * every / 2) % every == every - 1 {
            return BankOp::Audit;
        }
        let h = splitmix64(
            self.seed
                ^ splitmix64(
                    (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
                ),
        );
        let from = self.zipf.sample(unit(splitmix64(h ^ 1)));
        if h % (READS + TRANSFERS) >= TRANSFERS {
            return BankOp::Balance(from);
        }
        let mut to = self.zipf.sample(unit(splitmix64(h ^ 2)));
        if to == from {
            to = (from + 1) % self.zipf.len();
        }
        BankOp::Transfer(from, to, 1 + (h >> 40) as i64 % 100)
    }
}

struct Bank {
    accounts: Vec<TVar<i64>>,
    total: i64,
}

impl Bank {
    fn new(balances: impl IntoIterator<Item = i64>) -> Bank {
        let accounts: Vec<TVar<i64>> = balances.into_iter().map(TVar::new).collect();
        let total = INITIAL * accounts.len() as i64;
        Bank { accounts, total }
    }

    fn sum(&self, txn: &mut Txn) -> StmResult<i64> {
        let mut sum = 0;
        for a in &self.accounts {
            sum += a.read(txn)?;
        }
        Ok(sum)
    }
}

struct BankClient {
    base: Client,
    transfer: TxnBuilder,
    balance: TxnBuilder,
    audit: TxnBuilder,
    bad_audits: u64,
}

impl BankClient {
    fn new(tracer: Option<Tracer>) -> BankClient {
        let b = |site| Txn::build().site(site).escalation(EscalationPolicy::default());
        BankClient {
            base: Client::new(tracer),
            transfer: b("bank_transfer"),
            balance: b("bank_balance"),
            audit: b("bank_audit"),
            bad_audits: 0,
        }
    }
}

fn op(bank: &Bank, gen: &Gen, cl: &mut BankClient, c: usize, i: u64) {
    let req = i * CLIENTS as u64 + c as u64 + 1;
    let tr = &mut cl.base.tracer;
    if let Some(t) = tr {
        t.begin("request", req);
    }
    let next = span(tr, "workload.op", req, || gen.op(c, i));
    let t0 = Instant::now();
    let class = match next {
        BankOp::Balance(a) => {
            span(tr, "stm.balance", req, || cl.balance.run(|txn| bank.accounts[a].read(txn)));
            Class::Read
        }
        BankOp::Transfer(from, to, amount) => {
            span(tr, "stm.transfer", req, || {
                cl.transfer.run(|txn| {
                    let (f, t) = (bank.accounts[from].read(txn)?, bank.accounts[to].read(txn)?);
                    bank.accounts[from].write(txn, f - amount)?;
                    bank.accounts[to].write(txn, t + amount)
                })
            });
            cl.base.user_bytes += 16;
            Class::Write
        }
        BankOp::Audit => {
            let (sum, _) = span(tr, "stm.audit", req, || cl.audit.run(|txn| bank.sum(txn)));
            cl.bad_audits += (sum != bank.total) as u64;
            Class::Scan
        }
    };
    let ns = t0.elapsed().as_nanos() as u64;
    if let Some(t) = tr {
        t.end();
    }
    cl.base.record(class, ns);
}

fn run_epoch(bank: &Bank, gen: &Gen, clients: &mut [BankClient], quota: u64, epoch: u64) {
    run_clients(clients, |c, cl| {
        cl.base.start_epoch();
        pin_worker_rng(splitmix64(gen.seed ^ epoch), c);
        for j in 0..quota {
            op(bank, gen, cl, c, epoch * quota + j);
        }
    });
}

fn snapshot_image(balances: &[i64]) -> Vec<u8> {
    let map = balances.iter().enumerate().map(|(i, b)| (format!("a{i}"), b.to_string())).collect();
    encode_checkpoint(&Checkpoint { epoch: 1, next_txid: 1, map })
}

/// Rebuild the bank from a snapshot image and audit it.
fn restore(image: &[u8], accounts: usize) -> Result<Bank, String> {
    let cp = decode_checkpoint(image).ok_or("bank snapshot does not decode")?;
    let mut balances = Vec::with_capacity(accounts);
    for i in 0..accounts {
        let v = cp.map.get(&format!("a{i}")).ok_or(format!("account a{i} missing"))?;
        balances.push(v.parse::<i64>().map_err(|e| format!("account a{i}: {e}"))?);
    }
    let bank = Bank::new(balances);
    let (sum, _) = Txn::build().site("bank_restore").run(|txn| bank.sum(txn));
    if sum != bank.total {
        return Err(format!("restored bank holds {sum}, not {}", bank.total));
    }
    Ok(bank)
}

/// Snapshot the quiescent bank, restore it once and check that every
/// balance and the total come back, then time repeated restorations (see
/// [`parallel_samples`]). Returns the snapshot image.
fn restore_reps(
    bank: &Bank,
    min_reps: usize,
    what: &str,
    tr: &mut Option<Tracer>,
    times: &mut Vec<f64>,
    problems: &mut Vec<String>,
) -> Vec<u8> {
    let balances: Vec<i64> = bank.accounts.iter().map(|a| a.load()).collect();
    let total: i64 = balances.iter().sum();
    if total != bank.total {
        problems.push(format!("{what}: total {total}, not {}", bank.total));
    }
    let image = snapshot_image(&balances);
    match span(tr, "bank.restore", 0, || restore(&image, balances.len())) {
        Ok(r) if r.accounts.iter().map(|a| a.load()).ne(balances.iter().copied()) => {
            problems.push(format!("{what}: restored balances differ"))
        }
        Ok(_) => {}
        Err(e) => problems.push(format!("{what}: {e}")),
    }
    times.extend(parallel_samples(min_reps, || restore(&image, balances.len())));
    image
}

/// Create the accounts and run one warm-up epoch; returns the bank and
/// the warm-up's audits that did not conserve money.
fn setup(spec: &BankSpec, gen: &Gen) -> (Bank, u64) {
    let bank = Bank::new(std::iter::repeat_n(INITIAL, spec.accounts));
    let mut warm: Vec<BankClient> = (0..CLIENTS).map(|_| BankClient::new(None)).collect();
    run_epoch(&bank, gen, &mut warm, spec.quota, 0);
    let bad = warm.iter().map(|c| c.bad_audits).sum();
    (bank, bad)
}

pub fn measure(spec: &BankSpec, seed: u64, budget: Budget, traced: bool) -> Phase {
    let gen = Gen { zipf: Zipfian::new(spec.accounts, spec.theta), seed };
    let t = Instant::now();
    let (bank, mut warm_bad) = setup(spec, &gen);
    let mut setups = vec![t.elapsed().as_secs_f64()];

    let origin = Instant::now();
    let mut main_tr = traced.then(|| Tracer::new(origin, 0));
    let mut clients: Vec<BankClient> = (0..CLIENTS)
        .map(|c| BankClient::new(traced.then(|| Tracer::new(origin, c as u64 + 1))))
        .collect();
    let probe = StmProbe::start(traced);
    let mut problems = Vec::new();
    let mut restores = Vec::new();
    let mut clock = EpochClock::start(budget);
    loop {
        let e = clock.begin_epoch();
        run_epoch(&bank, &gen, &mut clients, spec.quota, e);
        clock.absorb(clients.iter().map(|c| &c.base));
        if clock.sample_due() {
            clock.exclude(|| {
                let what = format!("snapshot after epoch {e}");
                restore_reps(&bank, 1, &what, &mut main_tr, &mut restores, &mut problems)
            });
        }
        // As in the KV workloads: untraced phases only.
        if !traced && clock.setup_due() {
            clock.exclude(|| {
                let t = Instant::now();
                let again = setup(spec, &gen);
                setups.push(t.elapsed().as_secs_f64());
                warm_bad += again.1;
            });
        }
        if clock.done() {
            break;
        }
    }
    let (epochs, elapsed_s, windows) = clock.finish();
    let mut layer = Layer::default();
    if probe.finish(&mut layer).is_some() {
        let secs = |name| span_secs(clients.iter().map(|c| &c.base), name);
        layer.set("stm.read_s", secs("stm.balance"));
        layer.set("stm.write_s", secs("stm.transfer"));
        layer.set("stm.scan_s", secs("stm.audit"));
    }

    let bad_audits = warm_bad + clients.iter().map(|c| c.bad_audits).sum::<u64>();
    if bad_audits > 0 {
        problems.push(format!("{bad_audits} audits saw money created or destroyed"));
    }
    let image = restore_reps(
        &bank,
        FINAL_RESTORES,
        "final snapshot",
        &mut main_tr,
        &mut restores,
        &mut problems,
    );
    let live_bytes = bank
        .accounts
        .iter()
        .enumerate()
        .map(|(i, a)| format!("a{i}").len() + a.load().to_string().len())
        .sum::<usize>();

    Phase {
        clients: clients.into_iter().map(|c| c.base).collect(),
        windows,
        elapsed_s,
        epochs,
        setup_s: trimmed_mean(&setups),
        recover_s: trimmed_mean(&restores),
        space_amp: image.len() as f64 / live_bytes as f64,
        problems,
        layer,
        tracer: main_tr,
        notes: vec![format!(
            "bank: {} accounts, snapshot {} bytes for {live_bytes} live bytes, {} restorations",
            spec.accounts,
            image.len(),
            restores.len()
        )],
    }
}
