//! The worker's parking table (one entry per in-flight address,
//! carrying its waiter list and an awaiting-reply flag) under an
//! adversarial fabric: replies are duplicated and delayed, an LC dies
//! mid-run so outstanding requests are re-homed, and churn makes some
//! replies stale. The reply-side counters are pinned to the values the
//! run has always produced for this seed, so any change to how the
//! table recognises a genuine, duplicate or stale reply shows up here.

use spal_cache::LrCacheConfig;
use spal_dataplane::{run, ChurnConfig, DataplaneConfig, FailoverPlan, FaultPlan, WorkerReport};
use spal_rib::synth;
use spal_traffic::{preset, PresetName, TracePreset};

#[test]
fn parking_table_counters_are_pinned_under_duplicated_and_delayed_replies() {
    let psi = 4;
    let packets = 3_000;
    let table = synth::small(31);
    let traces = TracePreset {
        distinct: 600,
        ..preset(PresetName::D75)
    }
    .generate(&table, psi * packets, 13)
    .split(psi);
    let cfg = DataplaneConfig {
        workers: psi,
        deterministic: true,
        cache: LrCacheConfig::paper(512),
        failover: Some(FailoverPlan {
            lc: 1,
            after_packets: (packets as u64) * 2 / 5,
        }),
        faults: Some(FaultPlan {
            seed: 0x5A17,
            delay_per_mille: 80,
            drop_per_mille: 0,
            dup_per_mille: 60,
            stall_per_mille: 10,
            forced_publication_per_mille: 5,
            max_delay_iters: 6,
            retransmit_delay_iters: 6,
        }),
        churn: Some(ChurnConfig {
            updates: 400,
            updates_per_publication: 20,
            withdraw_fraction: 0.3,
            pace_us: 0,
        }),
        seed: 17,
        ..Default::default()
    };
    let report = run(&table, &traces, &cfg);
    assert_eq!(report.oracle_divergence(), 0);
    let faults = report.faults.as_ref().expect("fault plan ran");
    assert!(faults.delayed > 0 && faults.duplicated > 0);

    // Per worker, LC 0..4: recorded from this configuration before the
    // pending map and the awaiting-reply set became one table.
    let per_lc = |f: fn(&WorkerReport) -> u64| report.workers.iter().map(f).collect::<Vec<_>>();
    assert_eq!(per_lc(|w| w.duplicate_replies), [27, 23, 54, 32]);
    assert_eq!(per_lc(|w| w.rehomed_requests), [5, 0, 4, 2]);
    assert_eq!(per_lc(|w| w.stale_replies), [106, 39, 56, 17]);

    for w in &report.workers {
        assert_eq!(
            w.park.parked_at_end, 0,
            "LC {} quiesced with parked addresses",
            w.lc
        );
        assert!(w.park.peak_parked > 0, "LC {} never parked", w.lc);
        assert!(
            w.park.peak_free_lists <= w.park.peak_parked,
            "LC {}: {} free lists for a peak of {} parked addresses",
            w.lc,
            w.park.peak_free_lists,
            w.park.peak_parked
        );
    }
}
