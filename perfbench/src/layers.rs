//! The traced run: times the public entry points of each layer from
//! the benchmark's own code, on the workload's inputs, and splits the
//! dataplane's per-packet cost into layer costs plus a residual.
//!
//! * `core` — partitioning and the per-LC engine builds, then
//!   `home_of` inside the replay;
//! * `cache`, `lpm` — a single-threaded replay of worker 0's stream
//!   through the calls a vector-mode worker makes per burst:
//!   `LrCache::probe_batch`, `home_of` for the misses, one
//!   `lookup_batch` per home LC (32-lane chunks for remote homes, as a
//!   coalesced request is served), and `LrCache::fill`. The replay runs
//!   traced and untraced; the wall-time difference is the tracing
//!   overhead;
//! * `fabric` — `push_slice`/`pop_slice` of coalesced batch requests
//!   built from the replay's misses, and a two-thread ping-pong for the
//!   cross-core hand-off;
//! * `epoch` — pin/unpin, and publication plus grace period with the
//!   workload's reader count;
//! * the update path — `apply_delta` per LC fragment per batch and
//!   `invalidate_covered` per changed prefix, on a seeded update stream.
//!
//! Per-packet call counts come from the dataplane's own report, so
//! `runtime.ns_per_pkt = Σ layer cost × calls per packet + residual`;
//! the residual is the worker-loop cost no layer call accounts for.

use crate::family::Family;
use crate::spans::{layer_self_times, totals, Recorder};
use crate::stats::median;
use crate::workload::{Measured, Rep, Workload};
use spal_cache::{BatchProbe, LrCache, LrCacheConfig, Origin};
use spal_dataplane::epoch_table;
use spal_fabric::{spsc_ring, AddrBatch, FabricMsg, MsgKind, BATCH_MSG_LANES};
use spal_lpm::CountedLookup;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Packets of worker 0's stream the replay runs through.
const REPLAY_PACKETS: usize = 1_000_000;
/// Missed addresses kept for the scalar, counted and fabric passes.
const MISS_SAMPLE: usize = 100_000;
const PIN_ITERS: u64 = 1_000_000;
const PUBLICATIONS: u64 = 2_000;
const FABRIC_MSGS: usize = 200_000;
const HANDOFF_ROUND_TRIPS: u64 = 20_000;
/// Update stream of the update-path pass: 40 batches of 10.
const LAYER_UPDATES: usize = 400;
const UPDATES_PER_BATCH: usize = 10;

pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64)>,
    pub lines: Vec<String>,
    pub recorder: Recorder,
}

type Cache<F> = LrCache<Option<u16>, <F as Family>::Addr>;

/// What one replay leaves behind.
struct Replay<F: Family> {
    cache: Cache<F>,
    wall_s: f64,
    /// Sampled misses with their home LC.
    misses: Vec<(F::Addr, u16)>,
    /// 32-lane remote lookups issued, i.e. coalesced request messages.
    remote_msgs: u64,
    bursts: u64,
}

fn replay<F: Family>(
    rec: &mut Recorder,
    stream: &[F::Addr],
    part: &F::Part,
    engines: &[F::Engine],
    w: &Workload<F>,
) -> Replay<F> {
    let psi = engines.len();
    let mut cache: Cache<F> = LrCache::new(LrCacheConfig::paper(w.params.cache_blocks));
    let mut lanes = Vec::with_capacity(w.params.batch);
    let mut missed = Vec::with_capacity(w.params.batch);
    let mut homes: Vec<u16> = Vec::with_capacity(w.params.batch);
    let mut per_home: Vec<Vec<F::Addr>> = vec![Vec::new(); psi];
    let mut out = vec![CountedLookup::MISS; w.params.batch];
    let mut resolved: Vec<(F::Addr, Option<u16>, Origin)> = Vec::new();
    let mut misses = Vec::new();
    let mut remote_msgs = 0u64;
    let mut bursts = 0u64;
    let t0 = Instant::now();
    for (b, burst) in stream.chunks(w.params.batch).enumerate() {
        let b = b as u64;
        bursts += 1;
        rec.enter("replay.burst", b);
        lanes.clear();
        rec.time("cache.probe_batch", b, burst.len() as u64, || {
            cache.probe_batch(burst, &mut lanes)
        });
        missed.clear();
        for (&a, lane) in burst.iter().zip(&lanes) {
            if matches!(lane, BatchProbe::MissReserved | BatchProbe::MissUnrecorded) {
                missed.push(a);
            }
        }
        homes.clear();
        rec.time("core.home_of", b, missed.len() as u64, || {
            homes.extend(missed.iter().map(|&a| F::home_of(part, a)))
        });
        for v in per_home.iter_mut() {
            v.clear();
        }
        for (&a, &h) in missed.iter().zip(&homes) {
            per_home[h as usize].push(a);
            if misses.len() < MISS_SAMPLE && rec.enabled() {
                misses.push((a, h));
            }
        }
        resolved.clear();
        for (h, addrs) in per_home.iter().enumerate() {
            let (lanes_per_call, origin) = if h == 0 {
                (w.params.batch, Origin::Loc)
            } else {
                (BATCH_MSG_LANES, Origin::Rem)
            };
            for chunk in addrs.chunks(lanes_per_call) {
                if h != 0 {
                    remote_msgs += 1;
                }
                let out = &mut out[..chunk.len()];
                rec.time("lpm.lookup_batch", b, chunk.len() as u64, || {
                    F::lookup_batch(&engines[h], chunk, out)
                });
                resolved.extend(
                    chunk
                        .iter()
                        .zip(out.iter())
                        .map(|(&a, r)| (a, r.next_hop.map(|nh| nh.0), origin)),
                );
            }
        }
        rec.time("cache.fill", b, resolved.len() as u64, || {
            for &(a, nh, origin) in &resolved {
                black_box(cache.fill(a, nh, origin));
            }
        });
        rec.exit(burst.len() as u64);
    }
    Replay {
        cache,
        wall_s: t0.elapsed().as_secs_f64(),
        misses,
        remote_msgs,
        bursts,
    }
}

/// Nanoseconds per item over every span named `name`.
fn per_item_ns(rec: &Recorder, name: &str) -> f64 {
    let (ns, items) = totals(rec.spans(), name);
    if items == 0 {
        0.0
    } else {
        ns as f64 / items as f64
    }
}

fn span_s(rec: &Recorder, name: &str) -> f64 {
    totals(rec.spans(), name).0 as f64 / 1e9
}

/// `push_slice` and `pop_slice` per message, in bursts of the replay's
/// messages per burst. One span covers a run of bursts (the ring's
/// capacity worth), so the span record stays small.
fn fabric_ops<F: Family>(rec: &mut Recorder, misses: &[(F::Addr, u16)], burst: usize, ring: usize) {
    let addrs: Vec<F::Addr> = misses.iter().map(|&(a, _)| a).collect();
    let msgs: Vec<FabricMsg<F::Addr>> = addrs
        .chunks(BATCH_MSG_LANES)
        .map(|chunk| FabricMsg {
            kind: MsgKind::BatchRequest(AddrBatch::from_slice(chunk)),
            src: 0,
            dst: 1,
            addr: chunk[0],
            packet_id: 0,
            sent_at: 0,
        })
        .collect();
    if msgs.is_empty() {
        return;
    }
    let (mut tx, mut rx) = spsc_ring::<FabricMsg<F::Addr>>(ring);
    let burst = burst.clamp(1, msgs.len().min(tx.capacity()));
    let bursts_per_span = (tx.capacity() / burst).clamp(1, 64);
    let mut popped = Vec::with_capacity(burst);
    let (mut sent, mut i) = (0usize, 0usize);
    while sent < FABRIC_MSGS {
        let n = rec.time(
            "fabric.push_slice",
            0,
            (bursts_per_span * burst) as u64,
            || {
                let mut n = 0;
                for _ in 0..bursts_per_span {
                    let slice = &msgs[i..i + burst];
                    i = if i + 2 * burst > msgs.len() {
                        0
                    } else {
                        i + burst
                    };
                    n += tx.push_slice(slice);
                }
                n
            },
        );
        assert_eq!(n, bursts_per_span * burst, "the ring holds a span's bursts");
        let m = rec.time("fabric.pop_slice", 0, n as u64, || {
            let mut m = 0;
            for _ in 0..bursts_per_span {
                popped.clear();
                m += rx.pop_slice(&mut popped, burst);
                black_box(&popped);
            }
            m
        });
        assert_eq!(m, n, "every pushed message pops");
        sent += n;
    }
}

/// One-way cross-thread hand-off: ping-pong over two rings, halved.
fn fabric_handoff<F: Family>(rec: &mut Recorder, addr: F::Addr) {
    let msg = FabricMsg {
        kind: MsgKind::<F::Addr>::Request,
        src: 0,
        dst: 1,
        addr,
        packet_id: 0,
        sent_at: 0,
    };
    let (mut ping_tx, mut ping_rx) = spsc_ring::<FabricMsg<F::Addr>>(2);
    let (mut pong_tx, mut pong_rx) = spsc_ring::<FabricMsg<F::Addr>>(2);
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            for _ in 0..HANDOFF_ROUND_TRIPS {
                let m = spin_until(|| ping_rx.try_pop());
                spin_until(|| pong_tx.try_push(m).ok());
            }
        });
        rec.time("fabric.handoff", 0, 2 * HANDOFF_ROUND_TRIPS, || {
            for _ in 0..HANDOFF_ROUND_TRIPS {
                spin_until(|| ping_tx.try_push(msg).ok());
                black_box(spin_until(|| pong_rx.try_pop()));
            }
        });
        echo.join().expect("echo thread panicked");
    });
}

/// Poll `f` until it yields, spinning first and then yielding the core.
fn spin_until<T>(mut f: impl FnMut() -> Option<T>) -> T {
    let mut spins = 0u32;
    loop {
        if let Some(v) = f() {
            return v;
        }
        spins += 1;
        if spins < 1 << 14 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Pin/unpin, then publication plus grace period while one thread
/// cycles through `readers` reader handles the way workers re-pin every
/// iteration.
fn epoch_ops(rec: &mut Recorder, readers: usize) {
    let (mut writer, mut handles) = epoch_table(Box::new(0u64), readers);
    let first = &mut handles[0];
    rec.time("epoch.pin", 0, PIN_ITERS, || {
        for _ in 0..PIN_ITERS {
            black_box(*first.pin());
        }
    });
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        s.spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                for r in handles.iter_mut() {
                    let pinned = r.pin();
                    for _ in 0..64 {
                        std::hint::spin_loop();
                    }
                    black_box(*pinned);
                }
            }
        });
        rec.time("epoch.publish", 0, PUBLICATIONS, || {
            for i in 0..PUBLICATIONS {
                black_box(writer.publish_deferred(Box::new(i)).into_inner());
            }
        });
        stop.store(true, Ordering::SeqCst);
    });
}

/// `apply_delta` per LC fragment per batch (a declined patch is timed
/// with its rebuild, as the control plane pays it), and
/// `invalidate_covered` per changed prefix on the replay's warm cache.
/// Returns the declined patches.
fn update_path<F: Family>(
    rec: &mut Recorder,
    w: &Workload<F>,
    part: &F::Part,
    ribs: &mut [F::Rib],
    engines: &mut [F::Engine],
    cache: &mut Cache<F>,
) -> u64 {
    let updates = F::updates(&w.rib, LAYER_UPDATES, w.params.seed ^ 0xA11CE);
    let mut declined = 0u64;
    for (b, batch) in updates.chunks(UPDATES_PER_BATCH).enumerate() {
        let b = b as u64;
        let mut changed: Vec<Vec<F::Prefix>> = vec![Vec::new(); ribs.len()];
        for &u in batch {
            let p = F::prefix_of(u);
            for lc in F::lcs_of_prefix(part, p) {
                let lc = lc as usize;
                F::apply_to_rib(&mut ribs[lc], u);
                if !changed[lc].contains(&p) {
                    changed[lc].push(p);
                }
            }
        }
        for (lc, prefixes) in changed.iter().enumerate() {
            if prefixes.is_empty() {
                continue;
            }
            let (engine, rib) = (&mut engines[lc], &ribs[lc]);
            rec.time("lpm.apply_delta", b, 1, || {
                if !F::apply_delta(engine, prefixes, rib) {
                    *engine = F::build(w.alg, rib);
                    declined += 1;
                }
            });
        }
        for &u in batch {
            let (bits, len) = F::prefix_bits(F::prefix_of(u));
            rec.time("cache.invalidate_covered", b, 1, || {
                black_box(cache.invalidate_covered(bits, len))
            });
        }
    }
    declined
}

/// Sum of `f` over every worker of every measured run, per packet.
fn per_pkt(reps: &[Rep], f: impl Fn(&spal_dataplane::WorkerReport) -> u64) -> f64 {
    let total: u64 = reps.iter().flat_map(|r| &r.report.workers).map(&f).sum();
    let packets: u64 = reps.iter().map(Rep::packets).sum();
    total as f64 / packets.max(1) as f64
}

pub fn traced<F: Family>(w: &Workload<F>, m: &Measured) -> LayerReport {
    let psi = w.params.workers;
    let mut rec = Recorder::new(true);

    let (part, mut ribs) = rec.time("core.partition", 0, 1, || F::partition(&w.rib, psi));
    let mut engines: Vec<F::Engine> = rec.time("core.build", 0, psi as u64, || {
        ribs.iter().map(|r| F::build(w.alg, r)).collect()
    });

    // Replay: two untraced passes, the traced one, one more untraced.
    let stream: Vec<F::Addr> = F::dests(&F::split(&w.trace, psi)[0])
        .iter()
        .take(REPLAY_PACKETS)
        .copied()
        .collect();
    let mut untraced = Vec::new();
    rec.set_enabled(false);
    for _ in 0..2 {
        untraced.push(replay(&mut rec, &stream, &part, &engines, w).wall_s);
    }
    rec.set_enabled(true);
    let mut traced = replay(&mut rec, &stream, &part, &engines, w);
    rec.set_enabled(false);
    untraced.push(replay(&mut rec, &stream, &part, &engines, w).wall_s);
    rec.set_enabled(true);
    let untraced_s = median(&untraced);
    let overhead = traced.wall_s / untraced_s - 1.0;
    let hit_ratio = traced.cache.stats().hit_rate();

    // Scalar and counted passes over the sampled misses at their homes.
    let mut by_home: Vec<Vec<F::Addr>> = vec![Vec::new(); psi];
    for &(a, h) in &traced.misses {
        by_home[h as usize].push(a);
    }
    let (mut access_sum, mut line_sum, mut n) = (0.0, 0.0, 0usize);
    for (h, addrs) in by_home.iter().enumerate().filter(|(_, a)| !a.is_empty()) {
        let engine = &engines[h];
        rec.time("lpm.lookup", 0, addrs.len() as u64, || {
            for &a in addrs {
                black_box(F::lookup(engine, a));
            }
        });
        rec.time("lpm.counted", 0, addrs.len() as u64, || {
            access_sum += F::mean_accesses(engine, addrs) * addrs.len() as f64;
            line_sum += F::mean_lines(engine, addrs) * addrs.len() as f64;
        });
        n += addrs.len();
    }
    let n = n.max(1) as f64;

    let msgs_per_burst = traced.remote_msgs.div_ceil(traced.bursts.max(1)) as usize;
    fabric_ops::<F>(
        &mut rec,
        &traced.misses,
        msgs_per_burst,
        w.params.ring_capacity,
    );
    let any_addr = F::dests(&w.trace)[0];
    fabric_handoff::<F>(&mut rec, any_addr);
    epoch_ops(&mut rec, psi);
    let declined = update_path(
        &mut rec,
        w,
        &part,
        &mut ribs,
        &mut engines,
        &mut traced.cache,
    );

    // Per-call layer costs.
    let probe_ns = per_item_ns(&rec, "cache.probe_batch");
    let fill_ns = per_item_ns(&rec, "cache.fill");
    let home_ns = per_item_ns(&rec, "core.home_of");
    let batch_ns = per_item_ns(&rec, "lpm.lookup_batch");
    let push_ns = per_item_ns(&rec, "fabric.push_slice");
    let pop_ns = per_item_ns(&rec, "fabric.pop_slice");
    let pin_ns = per_item_ns(&rec, "epoch.pin");

    // Per-packet call counts from the dataplane's report.
    let reps = &m.reps;
    let probes = per_pkt(reps, |wr| wr.cache.probes());
    // Every FE lookup resolves one missed address: its home was looked
    // up once, and its result fills one cache.
    let fe = per_pkt(reps, |wr| wr.fe_lookups);
    let msgs = per_pkt(reps, |wr| wr.batch_requests_sent + wr.batch_replies_sent);
    let remote = per_pkt(reps, |wr| wr.remote_requests);
    let batch_reqs = per_pkt(reps, |wr| wr.batch_requests_sent);
    let max_depth = reps
        .iter()
        .flat_map(|r| &r.report.workers)
        .map(|wr| wr.max_ring_depth)
        .max()
        .unwrap_or(0);
    let pins = 1.0 / w.params.batch as f64;

    let ns_per_pkt = m.ns_per_pkt();
    let costs = [
        ("cache", probe_ns * probes + fill_ns * fe),
        ("core", home_ns * fe),
        ("lpm", batch_ns * fe),
        ("fabric", (push_ns + pop_ns) * msgs),
        ("epoch", pin_ns * pins),
    ];
    let attributed: f64 = costs.iter().map(|(_, c)| c).sum();
    let residual = ns_per_pkt - attributed;
    let reclaim_us = median(
        &m.churn_reps()
            .iter()
            .filter_map(|r| r.report.churn.as_ref().map(|c| c.reclaim_us.p50_us()))
            .collect::<Vec<_>>(),
    );

    let mut lines = Vec::new();
    let terms: Vec<String> = costs
        .iter()
        .map(|(layer, c)| format!("{layer} {c:.2}"))
        .collect();
    lines.push(format!(
        "closure: {} + residual {residual:.2} = {ns_per_pkt:.2} ns/pkt (runtime.ns_per_pkt)",
        terms.join(" + ")
    ));
    lines.push(format!(
        "calls per packet: probe {probes:.3}, fe lookup/home_of/fill {fe:.3}, \
         fabric msgs {msgs:.4}, pin {pins:.4}"
    ));
    lines.push(format!(
        "tracing overhead: traced replay {:.1} ms vs untraced median {:.1} ms ({:+.1}%), \
         {} spans",
        traced.wall_s * 1e3,
        untraced_s * 1e3,
        overhead * 100.0,
        rec.spans().len()
    ));
    let self_times: Vec<String> = layer_self_times(rec.spans())
        .iter()
        .map(|(layer, ns)| format!("{layer} {:.1} ms", *ns as f64 / 1e6))
        .collect();
    lines.push(format!("self time by layer: {}", self_times.join(", ")));
    lines.push(format!(
        "update path: {LAYER_UPDATES} updates in batches of {UPDATES_PER_BATCH}, \
         {declined} patches declined and rebuilt"
    ));

    let metrics = vec![
        ("lpm.lookup_batch_ns", batch_ns),
        ("lpm.lookup_ns", per_item_ns(&rec, "lpm.lookup")),
        ("lpm.mean_accesses", access_sum / n),
        ("lpm.mean_lines", line_sum / n),
        (
            "lpm.apply_delta_us",
            per_item_ns(&rec, "lpm.apply_delta") / 1e3,
        ),
        ("cache.probe_batch_ns", probe_ns),
        ("cache.fill_ns", fill_ns),
        (
            "cache.invalidate_covered_ns",
            per_item_ns(&rec, "cache.invalidate_covered"),
        ),
        ("cache.hit_ratio", hit_ratio),
        ("core.home_of_ns", home_ns),
        ("core.partition_s", span_s(&rec, "core.partition")),
        ("core.build_s", span_s(&rec, "core.build")),
        ("fabric.push_ns", push_ns),
        ("fabric.pop_ns", pop_ns),
        ("fabric.handoff_ns", per_item_ns(&rec, "fabric.handoff")),
        ("fabric.msgs_per_pkt", msgs),
        (
            "fabric.lanes_per_msg",
            if batch_reqs > 0.0 {
                remote / batch_reqs
            } else {
                0.0
            },
        ),
        ("fabric.max_ring_depth", max_depth as f64),
        ("epoch.pin_ns", pin_ns),
        ("epoch.publish_us", per_item_ns(&rec, "epoch.publish") / 1e3),
        ("runtime.ns_per_pkt", ns_per_pkt),
        ("runtime.residual_ns_per_pkt", residual),
        ("runtime.latency_p99_ns", m.latency_ns(0.99)),
        ("control.reclaim_us", reclaim_us),
        ("trace.overhead_frac", overhead),
    ];
    LayerReport {
        metrics,
        lines,
        recorder: rec,
    }
}
