//! The four workloads, their seeded inputs, and the end-to-end
//! measurement: repeated closed-loop dataplane runs, each checked
//! against a full-table oracle.

use crate::family::{Family, Params, V4, V6, WITHDRAW_FRACTION};
use crate::stats::{histo_percentile, median};
use spal_bench::{dfz, lookup};
use spal_core::{LpmAlgorithm, LpmAlgorithm6};
use spal_dataplane::{ChurnConfig, DataplaneReport, LatencyHisto};
use spal_rib::synth;
use spal_rib::v6::synthesize6_dfz;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["locality", "miss-heavy", "churn", "v6"];

/// Table and trace sizes. The benchmark runs [`Size::FULL`]; tests run
/// small inputs through the same generators.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub v4_prefixes: usize,
    pub v6_prefixes: usize,
    /// Scales every workload's packet count.
    pub packet_scale: f64,
}

impl Size {
    pub const FULL: Size = Size {
        v4_prefixes: lookup::STRESS_PREFIXES,
        v6_prefixes: spal_rib::v6::DFZ2026_V6_SIZE,
        packet_scale: 1.0,
    };
}

/// One workload: which stack, engine and load, and its inputs.
pub struct Workload<F: Family> {
    pub name: &'static str,
    pub alg: F::Alg,
    pub params: Params,
    pub rib: F::Rib,
    pub trace: F::Trace,
    /// Updates the churn stream carries (checked fully applied).
    pub churn_updates: Option<u64>,
}

/// Packets per dataplane run, chosen so one run forwards for about a
/// second on a 2-core host: long enough that a run is not at the mercy
/// of one scheduling hiccup, short enough for several runs per
/// measurement window.
const LOCALITY_PACKETS: usize = 16_000_000;
const MISS_HEAVY_PACKETS: usize = 2_000_000;
const V6_PACKETS: usize = 4_000_000;

/// The churn stream: 8,000 updates, 10 per publication, paced 200 µs
/// apart, over about the first 40% of a run. The trace is long enough
/// that the stream is fully applied well before the single worker runs
/// out of packets (the control loop stops publishing once the workers
/// finish), and long enough that one run averages over the host's
/// sub-second speed changes.
const CHURN_UPDATES: usize = 8_000;
const CHURN_PACKETS: usize = 40_000_000;

fn base_params(workers: usize, seed: u64) -> Params {
    Params {
        workers,
        batch: 256,
        ring_capacity: 8192,
        cache_blocks: 4096,
        spot_check_every: 64,
        churn: None,
        deterministic: false,
        seed,
    }
}

fn packets(n: usize, size: Size) -> usize {
    ((n as f64 * size.packet_scale) as usize).max(1_000)
}

/// Seeds of the synthetic tables: the repository's stress table and
/// DFZ-2026 IPv6 table. The tables stay fixed across `--seed`s, which
/// vary the traffic and the update streams; a table-dependent figure
/// such as `fib_bytes_per_lc` then compares like with like.
const V4_TABLE_SEED: u64 = 0xB0B;
const V6_TABLE_SEED: u64 = 0xD15C;

pub fn v4_table(size: Size) -> spal_rib::RoutingTable {
    synth::synthesize(&synth::SynthConfig::sized(size.v4_prefixes, V4_TABLE_SEED))
}

/// `locality`: DIR-24-8 LCs under the paper's `B_L` stream — most
/// packets hit the LR-cache.
pub fn locality(seed: u64, size: Size) -> Workload<V4> {
    let rib = v4_table(size);
    let trace = lookup::dataplane_trace(&rib, packets(LOCALITY_PACKETS, size), seed);
    Workload {
        name: "locality",
        alg: LpmAlgorithm::Dir24,
        params: base_params(2, seed),
        rib,
        trace,
        churn_updates: None,
    }
}

/// `miss-heavy`: Lulea LCs under the near-uniform stress stream —
/// nearly every packet misses and most go to a remote home LC.
pub fn miss_heavy(seed: u64, size: Size) -> Workload<V4> {
    let rib = v4_table(size);
    let trace = dfz::dfz_v4_trace(&rib, packets(MISS_HEAVY_PACKETS, size), seed);
    Workload {
        name: "miss-heavy",
        alg: LpmAlgorithm::Lulea,
        params: base_params(2, seed),
        rib,
        trace,
        churn_updates: None,
    }
}

/// `churn`: one DIR-24-8 worker under `B_L` while the control thread
/// applies a BGP update stream with targeted invalidation.
pub fn churn(seed: u64, size: Size) -> Workload<V4> {
    let rib = v4_table(size);
    let trace = lookup::dataplane_trace(&rib, packets(CHURN_PACKETS, size), seed);
    let updates = ((CHURN_UPDATES as f64 * size.packet_scale) as usize).max(100);
    Workload {
        name: "churn",
        alg: LpmAlgorithm::Dir24,
        params: Params {
            churn: Some(ChurnConfig {
                updates,
                updates_per_publication: 10,
                withdraw_fraction: WITHDRAW_FRACTION,
                pace_us: 200,
            }),
            ..base_params(1, seed)
        },
        rib,
        trace,
        churn_updates: Some(updates as u64),
    }
}

/// `v6`: SHIP LCs on the DFZ-2026 IPv6 table under a Zipf stream.
pub fn v6(seed: u64, size: Size) -> Workload<V6> {
    let rib = synthesize6_dfz(size.v6_prefixes, V6_TABLE_SEED);
    let trace = dfz::dfz_v6_trace(&rib, packets(V6_PACKETS, size), seed);
    Workload {
        name: "v6",
        alg: LpmAlgorithm6::Ship,
        params: base_params(2, seed),
        rib,
        trace,
        churn_updates: None,
    }
}

/// The full-table oracle's checksum of the workload's trace. Each
/// distinct destination is looked up once and weighted by how often the
/// trace carries it, which keeps the reference trie's slow descent off
/// a 16M-packet trace.
pub fn oracle_checksum<F: Family>(w: &Workload<F>) -> u64 {
    let mut counts: HashMap<F::Addr, u64> = HashMap::new();
    for &a in F::dests(&w.trace) {
        *counts.entry(a).or_insert(0) += 1;
    }
    let oracle = F::build(F::ORACLE, &w.rib);
    counts.iter().fold(0u64, |sum, (&a, &n)| {
        let hop = F::lookup(&oracle, a).map_or(0, |h| h.0 as u64 + 1);
        sum.wrapping_add(hop.wrapping_mul(n))
    })
}

/// One dataplane run and its set-up time.
pub struct Rep {
    pub report: DataplaneReport,
    /// `run()` wall time minus the report's forwarding time.
    pub setup_s: f64,
}

impl Rep {
    pub fn packets(&self) -> u64 {
        self.report.total_packets()
    }

    pub fn latency_p50_ns(&self) -> f64 {
        histo_percentile(&self.report.latency_paths().all(), 0.50)
    }

    pub fn latency_p99_ns(&self) -> f64 {
        histo_percentile(&self.report.latency_paths().all(), 0.99)
    }
}

pub fn run_once<F: Family>(rib: &F::Rib, traces: &[F::Trace], alg: F::Alg, params: &Params) -> Rep {
    let t = Instant::now();
    let report = F::run(rib, traces, alg, params);
    let wall = t.elapsed();
    Rep {
        setup_s: wall.saturating_sub(report.elapsed).as_secs_f64(),
        report,
    }
}

/// Everything the checks found wrong, counted against what was tried.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Packets offered, over every run including warm-up.
    pub attempted: u64,
    /// Packets (and route samples) that came out wrong, lost or
    /// dropped, plus unapplied updates.
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, n: u64, what: String) {
        if n > 0 {
            self.failed += n;
            self.problems.push(what);
        }
    }

    /// Check one run: the next-hop checksum against the oracle (when
    /// the table was static), in-run spot checks, lost and dropped
    /// packets, and for churn the post-run table samples and the
    /// stream length.
    pub fn check(
        &mut self,
        label: &str,
        rep: &Rep,
        offered: u64,
        oracle: Option<u64>,
        updates: Option<u64>,
    ) {
        let r = &rep.report;
        self.attempted += offered;
        if let Some(sum) = oracle {
            let bad = u64::from(r.checksum() != sum);
            self.fail(
                bad,
                format!("{label}: next-hop checksum differs from the oracle"),
            );
        }
        self.fail(
            r.spot_check_mismatches(),
            format!(
                "{label}: {} spot-check mismatches",
                r.spot_check_mismatches()
            ),
        );
        let lost: u64 = r.workers.iter().map(|w| w.lost_packets).sum();
        let dropped: u64 = r.workers.iter().map(|w| w.ingress_dropped).sum();
        self.fail(lost, format!("{label}: {lost} packets lost"));
        self.fail(
            dropped,
            format!("{label}: {dropped} packets dropped at ingress"),
        );
        let missing = offered.saturating_sub(rep.packets() + lost + dropped);
        self.fail(
            missing,
            format!("{label}: {missing} packets never completed"),
        );
        if let Some(stream) = updates {
            match &r.churn {
                Some(c) => {
                    self.fail(
                        c.final_mismatches,
                        format!("{label}: {} post-churn RIB mismatches", c.final_mismatches),
                    );
                    let unapplied = stream.saturating_sub(c.updates_applied);
                    self.fail(
                        unapplied,
                        format!("{label}: {} of {stream} updates applied", c.updates_applied),
                    );
                }
                None => self.fail(1, format!("{label}: churn report missing")),
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The measured runs of one workload.
pub struct Measured {
    pub reps: Vec<Rep>,
    /// The update runs of a static-table workload (see [`measure`]).
    pub update_reps: Vec<Rep>,
    pub verdict: Verdict,
    pub window_s: f64,
    /// Wall seconds of each phase of the measurement, in order.
    pub phases: Vec<(&'static str, f64)>,
}

/// At least this many measured runs, however long they take.
const MIN_REPS: usize = 3;
/// A static-table workload makes one update run after every this many
/// forwarding runs, and at least two in a window.
const UPDATE_EVERY: usize = 2;
const MIN_UPDATE_REPS: usize = 2;
/// Update stream of an update run: 100 publications of 10 updates.
const UPDATE_REP_UPDATES: usize = 1_000;
const UPDATE_REP_CACHE_BLOCKS: usize = 256;
/// Trace length of an update run. The deterministic schedule spreads
/// the publications over it, so every update is applied whatever the
/// host's speed.
const UPDATE_REP_PACKETS: usize = 50_000;

/// Closed-loop measurement: one untimed warm-up run (the first run in a
/// process is markedly slower), then back-to-back runs until `seconds`
/// have passed. Every run is checked.
///
/// A static-table workload also measures how long the control plane
/// takes to apply a route update to its engine, with update runs:
/// deterministic runs with an update stream, whose single-threaded
/// schedule interleaves publications with forwarding rounds, so the
/// whole stream is applied however fast the host is. The host's speed
/// drifts by ±20% over seconds, so the update runs are spread through
/// the window between the forwarding runs rather than made in one
/// block; the first one is the warm-up run.
pub fn measure<F: Family>(w: &Workload<F>, seconds: f64) -> Measured {
    let mut phases = Vec::new();
    let mut phase = Instant::now();
    let mut lap = |name: &'static str| {
        phases.push((name, phase.elapsed().as_secs_f64()));
        phase = Instant::now();
    };
    let oracle = w.churn_updates.is_none().then(|| oracle_checksum(w));
    lap("oracle");
    let traces = F::split(&w.trace, w.params.workers);
    let offered = F::dests(&w.trace).len() as u64;
    let mut verdict = Verdict::default();

    let short: Vec<F::Addr> = F::dests(&w.trace)
        .iter()
        .take(UPDATE_REP_PACKETS)
        .copied()
        .collect();
    let short = F::split(
        &F::trace_from(format!("{}-updates", w.name), short),
        w.params.workers,
    );
    let short_offered = short.iter().map(|t| F::dests(t).len() as u64).sum();
    let update_params = Params {
        deterministic: true,
        churn: Some(ChurnConfig {
            updates: UPDATE_REP_UPDATES,
            updates_per_publication: 10,
            withdraw_fraction: WITHDRAW_FRACTION,
            pace_us: 0,
        }),
        // The run's post-quiesce coherence sweep checks every resident
        // cache entry against the RIB by a table scan; a small cache
        // keeps that check short. Cache size does not enter the apply
        // time.
        cache_blocks: UPDATE_REP_CACHE_BLOCKS,
        ..w.params.clone()
    };
    let update_run = |verdict: &mut Verdict, label: &str| {
        let rep = run_once::<F>(&w.rib, &short, w.alg, &update_params);
        let updates = Some(UPDATE_REP_UPDATES as u64);
        verdict.check(label, &rep, short_offered, None, updates);
        rep
    };

    let is_static = w.churn_updates.is_none();
    if is_static {
        update_run(&mut verdict, "warm-up update run");
    } else {
        let warm = run_once::<F>(&w.rib, &traces, w.alg, &w.params);
        verdict.check("warm-up", &warm, offered, oracle, w.churn_updates);
    }
    lap("warm-up");

    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let mut reps = Vec::new();
    let mut update_reps = Vec::new();
    while reps.len() < MIN_REPS
        || (is_static && update_reps.len() < MIN_UPDATE_REPS)
        || start.elapsed() < window
    {
        let rep = run_once::<F>(&w.rib, &traces, w.alg, &w.params);
        let label = format!("run {}", reps.len());
        verdict.check(&label, &rep, offered, oracle, w.churn_updates);
        reps.push(rep);
        if is_static && reps.len() % UPDATE_EVERY == 0 {
            let label = format!("update run {}", update_reps.len());
            update_reps.push(update_run(&mut verdict, &label));
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    lap("window");
    Measured {
        reps,
        update_reps,
        verdict,
        window_s,
        phases,
    }
}

/// Largest per-LC engine footprint for the workload's partitioning.
pub fn fib_bytes_per_lc<F: Family>(w: &Workload<F>) -> usize {
    let (_, per_lc) = F::partition(&w.rib, w.params.workers);
    per_lc
        .iter()
        .map(|rib| F::storage_bytes(&F::build(w.alg, rib)))
        .max()
        .unwrap_or(0)
}

impl Measured {
    /// The runs that carried an update stream: the update runs of a
    /// static-table workload, or every measured run of `churn`.
    pub fn churn_reps(&self) -> &[Rep] {
        if self.update_reps.is_empty() {
            &self.reps
        } else {
            &self.update_reps
        }
    }

    /// Median over [`Self::churn_reps`] of each run's median
    /// per-publication apply time (µs).
    pub fn update_apply_p50_us(&self) -> f64 {
        median(
            &self
                .churn_reps()
                .iter()
                .filter_map(|r| r.report.churn.as_ref().map(|c| c.apply_us.p50_us()))
                .collect::<Vec<_>>(),
        )
    }

    /// Packets per second over every measured run: all packets over all
    /// forwarding time, in Mpps.
    pub fn throughput_mpps(&self) -> f64 {
        let packets: u64 = self.reps.iter().map(Rep::packets).sum();
        let secs: f64 = self
            .reps
            .iter()
            .map(|r| r.report.elapsed.as_secs_f64())
            .sum();
        packets as f64 / secs / 1e6
    }

    /// Worker-nanoseconds per packet over every measured run.
    pub fn ns_per_pkt(&self) -> f64 {
        let packets: u64 = self.reps.iter().map(Rep::packets).sum();
        let worker_ns: f64 = self
            .reps
            .iter()
            .map(|r| r.report.elapsed.as_secs_f64() * 1e9 * r.report.workers.len() as f64)
            .sum();
        worker_ns / packets.max(1) as f64
    }

    /// Percentile `q` of every packet's latency over the measured runs.
    pub fn latency_ns(&self, q: f64) -> f64 {
        let mut all = LatencyHisto::default();
        for r in &self.reps {
            all.merge(&r.report.latency_paths().all());
        }
        histo_percentile(&all, q)
    }

    /// LR-cache hits over probes, every worker of every measured run.
    pub fn hit_rate(&self) -> f64 {
        let (mut hits, mut probes) = (0u64, 0u64);
        for w in self.reps.iter().flat_map(|r| &r.report.workers) {
            hits += w.cache.hits_loc + w.cache.hits_rem + w.cache.hits_waiting;
            probes += w.cache.probes();
        }
        hits as f64 / probes.max(1) as f64
    }

    /// Median `setup_s` over the measured runs.
    pub fn setup_s(&self) -> f64 {
        median(&self.reps.iter().map(|r| r.setup_s).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        v4_prefixes: 3_000,
        v6_prefixes: 2_000,
        packet_scale: 0.002,
    };

    #[test]
    fn same_seed_same_inputs_and_oracle_other_seed_differs() {
        for make in [locality, miss_heavy, churn] {
            let a = make(7, TINY);
            let b = make(7, TINY);
            let c = make(8, TINY);
            assert_eq!(a.trace.destinations(), b.trace.destinations(), "{}", a.name);
            assert_eq!(a.rib.entries(), c.rib.entries(), "{}", a.name);
            assert_eq!(oracle_checksum(&a), oracle_checksum(&b), "{}", a.name);
            assert_ne!(a.trace.destinations(), c.trace.destinations(), "{}", a.name);
            assert_ne!(oracle_checksum(&a), oracle_checksum(&c), "{}", a.name);
        }
        let (a, b, c) = (v6(7, TINY), v6(7, TINY), v6(8, TINY));
        assert_eq!(a.trace.destinations(), b.trace.destinations());
        assert_eq!(oracle_checksum(&a), oracle_checksum(&b));
        assert_ne!(a.trace.destinations(), c.trace.destinations());
        assert_ne!(oracle_checksum(&a), oracle_checksum(&c));
    }

    #[test]
    fn tiny_runs_pass_every_check() {
        let w = locality(3, TINY);
        let m = measure(&w, 0.0);
        assert!(m.verdict.correct(), "{:?}", m.verdict.problems);
        assert!(m.reps.len() >= MIN_REPS);
        assert_eq!(m.update_reps.len(), MIN_UPDATE_REPS);
        assert!(m.update_apply_p50_us() > 0.0);
        assert!(m.throughput_mpps() > 0.0 && m.latency_ns(0.5) > 0.0);

        // The churn stream is applied while the worker forwards, so the
        // trace must outlast it by a wide margin on a loaded test host.
        let w = churn(
            3,
            Size {
                packet_scale: 0.1,
                ..TINY
            },
        );
        let m = measure(&w, 0.0);
        assert!(m.verdict.correct(), "{:?}", m.verdict.problems);
        assert!(m.update_reps.is_empty());
        assert!(m.update_apply_p50_us() > 0.0);
    }

    #[test]
    fn a_wrong_oracle_is_a_failure() {
        let w = locality(3, TINY);
        let traces = V4::split(&w.trace, w.params.workers);
        let rep = run_once::<V4>(&w.rib, &traces, w.alg, &w.params);
        let offered = w.trace.len() as u64;
        let mut v = Verdict::default();
        v.check("right", &rep, offered, Some(oracle_checksum(&w)), None);
        assert!(v.correct());
        v.check("wrong", &rep, offered, Some(oracle_checksum(&w) ^ 1), None);
        assert!(!v.correct());
        assert_eq!(v.attempted, 2 * offered);
        // A churn check that expects more updates than were applied.
        let mut v = Verdict::default();
        v.check("no churn", &rep, offered, None, Some(10));
        assert!(!v.correct());
    }
}
