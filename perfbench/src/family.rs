//! The two address families the benchmark drives through one harness:
//! the IPv4 stack (`run`, `ForwardingTable`, `Partitioning`) and the
//! IPv6 stack (`run6`, `ForwardingTable6`, `Partitioning6`). Each method
//! is a thin call into the library's public API, so the traced run
//! times the same entry points the dataplane uses.

use spal_cache::{CacheAddr, LrCacheConfig};
use spal_core::bits::eta_for;
use spal_core::{
    select_bits, select_bits6, ForwardingTable, ForwardingTable6, LpmAlgorithm, LpmAlgorithm6,
    Partitioning, Partitioning6,
};
use spal_dataplane::{run, run6, ChurnConfig, Dataplane6Config, DataplaneConfig, DataplaneReport};
use spal_fabric::FabricAddr;
use spal_lpm::{mean_accesses, mean_accesses6, mean_lines, mean_lines6, CountedLookup, Lpm, Lpm6};
use spal_rib::updates::{update_stream, Update, UpdateStreamConfig};
use spal_rib::v6::{update_stream6, Prefix6, RoutingTable6, Update6};
use spal_rib::{NextHop, Prefix, RoutingTable};
use spal_traffic::{Trace, Trace6};

/// Dataplane settings shared by both families.
#[derive(Debug, Clone)]
pub struct Params {
    pub workers: usize,
    pub batch: usize,
    pub ring_capacity: usize,
    pub cache_blocks: usize,
    pub spot_check_every: u64,
    pub churn: Option<ChurnConfig>,
    pub deterministic: bool,
    pub seed: u64,
}

/// Withdraw share of every update stream the benchmark makes or asks
/// the control plane to make (the runtime's default).
pub const WITHDRAW_FRACTION: f64 = 0.3;

pub trait Family {
    type Addr: CacheAddr + FabricAddr + Send + Sync;
    type Alg: Copy + Send + Sync;
    type Rib: Sync;
    type Prefix: Copy + PartialEq;
    type Update: Copy;
    type Engine: Send + Sync;
    type Part: Send + Sync;
    type Trace: Sync;

    /// The reference engine whose replay is the correctness oracle.
    const ORACLE: Self::Alg;

    fn run(rib: &Self::Rib, traces: &[Self::Trace], alg: Self::Alg, p: &Params) -> DataplaneReport;
    fn trace_from(name: String, dests: Vec<Self::Addr>) -> Self::Trace;
    fn split(trace: &Self::Trace, n: usize) -> Vec<Self::Trace>;
    fn dests(trace: &Self::Trace) -> &[Self::Addr];

    /// Bit selection, ROT-partitioning and the per-LC forwarding tables,
    /// exactly as the dataplane's set-up does them.
    fn partition(rib: &Self::Rib, psi: usize) -> (Self::Part, Vec<Self::Rib>);
    fn build(alg: Self::Alg, rib: &Self::Rib) -> Self::Engine;
    fn home_of(part: &Self::Part, addr: Self::Addr) -> u16;
    fn lcs_of_prefix(part: &Self::Part, p: Self::Prefix) -> Vec<u16>;

    fn lookup_batch(e: &Self::Engine, addrs: &[Self::Addr], out: &mut [CountedLookup]);
    fn lookup(e: &Self::Engine, addr: Self::Addr) -> Option<NextHop>;
    fn storage_bytes(e: &Self::Engine) -> usize;
    fn mean_accesses(e: &Self::Engine, addrs: &[Self::Addr]) -> f64;
    fn mean_lines(e: &Self::Engine, addrs: &[Self::Addr]) -> f64;

    fn updates(rib: &Self::Rib, count: usize, seed: u64) -> Vec<Self::Update>;
    fn prefix_of(u: Self::Update) -> Self::Prefix;
    fn apply_to_rib(rib: &mut Self::Rib, u: Self::Update);
    /// `Lpm::apply_delta`; `false` when the engine declines and the
    /// fragment must be rebuilt.
    fn apply_delta(e: &mut Self::Engine, changed: &[Self::Prefix], rib: &Self::Rib) -> bool;
    fn prefix_bits(p: Self::Prefix) -> (Self::Addr, u8);
}

pub struct V4;
pub struct V6;

impl Family for V4 {
    type Addr = u32;
    type Alg = LpmAlgorithm;
    type Rib = RoutingTable;
    type Prefix = Prefix;
    type Update = Update;
    type Engine = ForwardingTable;
    type Part = Partitioning;
    type Trace = Trace;

    const ORACLE: LpmAlgorithm = LpmAlgorithm::Dp;

    fn run(rib: &RoutingTable, traces: &[Trace], alg: LpmAlgorithm, p: &Params) -> DataplaneReport {
        let cfg = DataplaneConfig {
            workers: p.workers,
            algorithm: alg,
            cache: LrCacheConfig::paper(p.cache_blocks),
            batch: p.batch,
            ring_capacity: p.ring_capacity,
            churn: p.churn.clone(),
            spot_check_every: p.spot_check_every,
            deterministic: p.deterministic,
            seed: p.seed,
            ..Default::default()
        };
        run(rib, traces, &cfg)
    }

    fn trace_from(name: String, dests: Vec<u32>) -> Trace {
        Trace::new(name, dests)
    }

    fn split(trace: &Trace, n: usize) -> Vec<Trace> {
        trace.split(n)
    }

    fn dests(trace: &Trace) -> &[u32] {
        trace.destinations()
    }

    fn partition(rib: &RoutingTable, psi: usize) -> (Partitioning, Vec<RoutingTable>) {
        let part = Partitioning::new(rib, select_bits(rib, eta_for(psi)), psi);
        let per_lc = part.forwarding_tables(rib);
        (part, per_lc)
    }

    fn build(alg: LpmAlgorithm, rib: &RoutingTable) -> ForwardingTable {
        ForwardingTable::build(alg, rib)
    }

    fn home_of(part: &Partitioning, addr: u32) -> u16 {
        part.home_of(addr)
    }

    fn lcs_of_prefix(part: &Partitioning, p: Prefix) -> Vec<u16> {
        part.lcs_of_prefix(p)
    }

    fn lookup_batch(e: &ForwardingTable, addrs: &[u32], out: &mut [CountedLookup]) {
        e.lookup_batch(addrs, out)
    }

    fn lookup(e: &ForwardingTable, addr: u32) -> Option<NextHop> {
        e.lookup(addr)
    }

    fn storage_bytes(e: &ForwardingTable) -> usize {
        e.storage_bytes()
    }

    fn mean_accesses(e: &ForwardingTable, addrs: &[u32]) -> f64 {
        mean_accesses(e, addrs)
    }

    fn mean_lines(e: &ForwardingTable, addrs: &[u32]) -> f64 {
        mean_lines(e, addrs)
    }

    fn updates(rib: &RoutingTable, count: usize, seed: u64) -> Vec<Update> {
        let cfg = UpdateStreamConfig {
            count,
            withdraw_fraction: WITHDRAW_FRACTION,
            seed,
        };
        update_stream(rib, &cfg).0
    }

    fn prefix_of(u: Update) -> Prefix {
        match u {
            Update::Announce(e) => e.prefix,
            Update::Withdraw(p) => p,
        }
    }

    fn apply_to_rib(rib: &mut RoutingTable, u: Update) {
        match u {
            Update::Announce(e) => rib.insert(e),
            Update::Withdraw(p) => {
                rib.remove(p);
            }
        }
    }

    fn apply_delta(e: &mut ForwardingTable, changed: &[Prefix], rib: &RoutingTable) -> bool {
        e.apply_delta(changed, rib).is_some()
    }

    fn prefix_bits(p: Prefix) -> (u32, u8) {
        (p.bits(), p.len())
    }
}

impl Family for V6 {
    type Addr = u128;
    type Alg = LpmAlgorithm6;
    type Rib = RoutingTable6;
    type Prefix = Prefix6;
    type Update = Update6;
    type Engine = ForwardingTable6;
    type Part = Partitioning6;
    type Trace = Trace6;

    const ORACLE: LpmAlgorithm6 = LpmAlgorithm6::Binary;

    fn run(
        rib: &RoutingTable6,
        traces: &[Trace6],
        alg: LpmAlgorithm6,
        p: &Params,
    ) -> DataplaneReport {
        let cfg = Dataplane6Config {
            workers: p.workers,
            algorithm: alg,
            cache: LrCacheConfig::paper(p.cache_blocks),
            batch: p.batch,
            ring_capacity: p.ring_capacity,
            churn: p.churn.clone(),
            spot_check_every: p.spot_check_every,
            deterministic: p.deterministic,
            seed: p.seed,
            ..Default::default()
        };
        run6(rib, traces, &cfg)
    }

    fn trace_from(name: String, dests: Vec<u128>) -> Trace6 {
        Trace6::new(name, dests)
    }

    fn split(trace: &Trace6, n: usize) -> Vec<Trace6> {
        trace.split(n)
    }

    fn dests(trace: &Trace6) -> &[u128] {
        trace.destinations()
    }

    fn partition(rib: &RoutingTable6, psi: usize) -> (Partitioning6, Vec<RoutingTable6>) {
        let part = Partitioning6::new(rib, select_bits6(rib, eta_for(psi)), psi);
        let per_lc = part.forwarding_tables(rib);
        (part, per_lc)
    }

    fn build(alg: LpmAlgorithm6, rib: &RoutingTable6) -> ForwardingTable6 {
        ForwardingTable6::build(alg, rib)
    }

    fn home_of(part: &Partitioning6, addr: u128) -> u16 {
        part.home_of(addr)
    }

    fn lcs_of_prefix(part: &Partitioning6, p: Prefix6) -> Vec<u16> {
        part.lcs_of_prefix(p)
    }

    fn lookup_batch(e: &ForwardingTable6, addrs: &[u128], out: &mut [CountedLookup]) {
        e.lookup_batch(addrs, out)
    }

    fn lookup(e: &ForwardingTable6, addr: u128) -> Option<NextHop> {
        e.lookup(addr)
    }

    fn storage_bytes(e: &ForwardingTable6) -> usize {
        e.storage_bytes()
    }

    fn mean_accesses(e: &ForwardingTable6, addrs: &[u128]) -> f64 {
        mean_accesses6(e, addrs)
    }

    fn mean_lines(e: &ForwardingTable6, addrs: &[u128]) -> f64 {
        mean_lines6(e, addrs)
    }

    fn updates(rib: &RoutingTable6, count: usize, seed: u64) -> Vec<Update6> {
        let cfg = UpdateStreamConfig {
            count,
            withdraw_fraction: WITHDRAW_FRACTION,
            seed,
        };
        update_stream6(rib, &cfg).0
    }

    fn prefix_of(u: Update6) -> Prefix6 {
        match u {
            Update6::Announce(e) => e.prefix,
            Update6::Withdraw(p) => p,
        }
    }

    fn apply_to_rib(rib: &mut RoutingTable6, u: Update6) {
        match u {
            Update6::Announce(e) => rib.insert(e),
            Update6::Withdraw(p) => {
                rib.remove(p);
            }
        }
    }

    fn apply_delta(e: &mut ForwardingTable6, changed: &[Prefix6], rib: &RoutingTable6) -> bool {
        e.apply_delta(changed, rib).is_some()
    }

    fn prefix_bits(p: Prefix6) -> (u128, u8) {
        (p.bits(), p.len())
    }
}
