//! SPAL's benchmark: the threaded dataplane on four workloads.
//!
//! ```text
//! spal-perfbench --workload <locality|miss-heavy|churn|v6> --seed N \
//!                --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: closed-loop dataplane
//! runs, repeated for `S` seconds after a warm-up run, each checked
//! against a full-table oracle. `--trace 1` runs the same measurement
//! and then the traced per-layer pass ([`layers`]). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. The run's full record (host, per-run samples, checks,
//! and for traced runs every span) goes under `.bench_out/`. Exits 1
//! when any check fails, 2 on bad arguments.
//!
//! See `perfbench/README.md` for the workloads, the metrics and what
//! each one should move.

mod family;
mod layers;
mod spans;
mod stats;
mod workload;

use family::Family;
use std::path::Path;
use workload::{Measured, Size, Workload};

/// End-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_mpps", "Mpps"),
    ("latency_p50_ns", "ns"),
    ("hit_rate", "fraction"),
    ("fib_bytes_per_lc", "bytes"),
    ("setup_s", "s"),
    ("update_apply_p50_us", "us"),
    ("ok_frac", "fraction"),
];

/// Per-layer metrics (`--trace 1`), as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("lpm.lookup_batch_ns", "ns"),
    ("lpm.lookup_ns", "ns"),
    ("lpm.mean_accesses", "count"),
    ("lpm.mean_lines", "count"),
    ("lpm.apply_delta_us", "us"),
    ("cache.probe_batch_ns", "ns"),
    ("cache.fill_ns", "ns"),
    ("cache.invalidate_covered_ns", "ns"),
    ("cache.hit_ratio", "fraction"),
    ("core.home_of_ns", "ns"),
    ("core.partition_s", "s"),
    ("core.build_s", "s"),
    ("fabric.push_ns", "ns"),
    ("fabric.pop_ns", "ns"),
    ("fabric.handoff_ns", "ns"),
    ("fabric.msgs_per_pkt", "count"),
    ("fabric.lanes_per_msg", "count"),
    ("fabric.max_ring_depth", "count"),
    ("epoch.pin_ns", "ns"),
    ("epoch.publish_us", "us"),
    ("runtime.ns_per_pkt", "ns"),
    ("runtime.residual_ns_per_pkt", "ns"),
    ("runtime.latency_p99_ns", "ns"),
    ("control.reclaim_us", "us"),
    ("trace.overhead_frac", "fraction"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                if !workload::WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("not one of {:?}", workload::WORKLOADS)));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where the run's record goes, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spal-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (s, n) = (args.seed, Size::FULL);
    let ok = match args.workload.as_str() {
        "locality" => bench(workload::locality(s, n), &args),
        "miss-heavy" => bench(workload::miss_heavy(s, n), &args),
        "churn" => bench(workload::churn(s, n), &args),
        "v6" => bench(workload::v6(s, n), &args),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// Threads a workload keeps busy: its workers, plus the control thread
/// when it applies a churn stream concurrently.
fn threads<F: Family>(w: &Workload<F>) -> usize {
    w.params.workers + usize::from(w.params.churn.is_some())
}

fn bench<F: Family>(w: Workload<F>, args: &Args) -> bool {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = threads(&w);
    let oversubscribed = threads > nproc;
    let host = format!(
        "{{\"nproc\": {nproc}, \"threads\": {threads}, \"oversubscribed\": {oversubscribed}, \
         \"seed\": {}, \"clock\": \"{}\"}}",
        args.seed,
        spans::CLOCK
    );
    println!("workload {} seed {} host {host}", w.name, args.seed);
    if oversubscribed {
        println!(
            "OVERSUBSCRIBED: {threads} threads on {nproc} cores; these figures measure the \
             scheduler and are not a clean result"
        );
    }

    let mut m = workload::measure(&w, args.seconds);
    let mut lines = run_lines(&m);
    let t = std::time::Instant::now();
    let (metrics, names) = if args.trace {
        let layers = layers::traced(&w, &m);
        lines.extend(layers.lines.iter().cloned());
        let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(OUT_DIR).and_then(|_| layers.recorder.write_jsonl(&path))
        {
            eprintln!("spal-perfbench: writing {}: {e}", path.display());
        }
        (layers.metrics, &PER_LAYER[..])
    } else {
        (end_to_end(&w, &m), &END_TO_END[..])
    };
    m.phases.push(("metrics", t.elapsed().as_secs_f64()));
    let phases: Vec<String> = m
        .phases
        .iter()
        .map(|(name, s)| format!("{name} {s:.2}"))
        .collect();
    lines.push(format!("phase wall seconds: {}", phases.join(", ")));
    for l in &lines {
        println!("{l}");
    }
    let mut problems = m.verdict.problems.clone();
    let metrics_json = metrics_json(&metrics, names, &mut problems);
    for p in &problems {
        println!("FAILED: {p}");
    }
    let correct = problems.is_empty();
    let failed = m.verdict.failed + u64::from(m.verdict.correct() && !correct);
    let record = format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"host\": {host}, \"reps\": {}, \
         \"window_s\": {}, \"notes\": {}, \"problems\": {}, \"metrics\": {metrics_json}}}",
        w.name,
        args.trace,
        m.reps.len(),
        m.window_s,
        json_strings(&lines),
        json_strings(&problems),
    );
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, &record)) {
        eprintln!("spal-perfbench: writing {}: {e}", path.display());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": \
         {metrics_json}}}",
        m.verdict.attempted.max(1)
    );
    correct
}

/// Sample counts and the spread behind each median, one line per
/// figure.
fn run_lines(m: &Measured) -> Vec<String> {
    let fmt = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut lines = vec![
        format!(
            "{} measured runs in {:.2} s after the warm-up run; {} packets per run",
            m.reps.len(),
            m.window_s,
            m.reps.first().map_or(0, |r| r.packets())
        ),
        format!(
            "throughput_mpps per run: {}",
            fmt(m.reps.iter().map(|r| r.report.throughput_mpps()).collect())
        ),
        format!(
            "setup_s per run: {}",
            fmt(m.reps.iter().map(|r| r.setup_s).collect())
        ),
    ];
    let samples: u64 = m
        .reps
        .iter()
        .map(|r| r.report.latency_paths().all().count())
        .sum();
    lines.push(format!(
        "latency p50 / p99 ns per run ({samples} samples in all): {} / {}",
        fmt(m.reps.iter().map(|r| r.latency_p50_ns()).collect()),
        fmt(m.reps.iter().map(|r| r.latency_p99_ns()).collect()),
    ));
    let apply: Vec<String> = m
        .churn_reps()
        .iter()
        .filter_map(|r| r.report.churn.as_ref().map(|c| (r, c)))
        .map(|(r, c)| {
            format!(
                "{:.1} us over {} publications ({} updates, {} patched, {} rebuilt; \
                 run set-up {:.2} s, forwarding {:.2} s)",
                c.apply_us.p50_us(),
                c.publications,
                c.updates_applied,
                c.delta_applies,
                c.rebuild_applies,
                r.setup_s,
                r.report.elapsed.as_secs_f64()
            )
        })
        .collect();
    lines.push(format!("update apply p50 per run: {}", apply.join("; ")));
    lines
}

fn end_to_end<F: Family>(w: &Workload<F>, m: &Measured) -> Vec<(&'static str, f64)> {
    let v = &m.verdict;
    vec![
        ("throughput_mpps", m.throughput_mpps()),
        ("latency_p50_ns", m.latency_ns(0.50)),
        ("hit_rate", m.hit_rate()),
        ("fib_bytes_per_lc", workload::fib_bytes_per_lc(w) as f64),
        ("setup_s", m.setup_s()),
        ("update_apply_p50_us", m.update_apply_p50_us()),
        ("ok_frac", 1.0 - v.failed as f64 / v.attempted.max(1) as f64),
    ]
}

/// The metrics as a JSON object, in the declared order and units. A
/// name outside `declared`, a missing one, or a value that is not a
/// finite number is a problem.
fn metrics_json(
    metrics: &[(&'static str, f64)],
    declared: &[(&str, &str)],
    problems: &mut Vec<String>,
) -> String {
    for (name, _) in metrics {
        if !declared.iter().any(|(d, _)| d == name) {
            problems.push(format!("metric {name} is not declared"));
        }
    }
    let mut fields = Vec::new();
    for (name, unit) in declared {
        match metrics.iter().find(|(n, _)| n == name) {
            Some((_, v)) if v.is_finite() => fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )),
            Some((_, v)) => problems.push(format!("metric {name} is {v}")),
            None => problems.push(format!("metric {name} was not measured")),
        }
    }
    format!("{{{}}}", fields.join(", "))
}

fn json_strings(v: &[String]) -> String {
    let quoted: Vec<String> = v
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", quoted.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Value of `key` in every object of one section of
    /// `BENCHMARK.json`, read with a plain scan (the benchmark has no
    /// JSON parser): each entry is one flat `{"name": …, …}` object.
    fn declared(section: &str, key: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let at = obj.find(&format!("\"{key}\"")).expect("key present");
                let rest = &obj[at + key.len() + 2..];
                let open = rest.find('"').expect("value opens") + 1;
                let len = rest[open..].find('"').expect("value closes");
                rest[open..open + len].to_string()
            })
            .collect()
    }

    fn pairs(section: &str) -> Vec<(String, String)> {
        declared(section, "name")
            .into_iter()
            .zip(declared(section, "unit"))
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        assert_eq!(pairs("end_to_end"), own(&END_TO_END));
        assert_eq!(pairs("per_layer"), own(&PER_LAYER));
        assert_eq!(declared("workloads", "name"), workload::WORKLOADS);
    }

    #[test]
    fn metrics_json_rejects_unknown_missing_and_non_finite() {
        let mut problems = Vec::new();
        let json = metrics_json(
            &[("setup_s", 0.5), ("bogus", 1.0), ("hit_rate", f64::NAN)],
            &END_TO_END,
            &mut problems,
        );
        assert!(json.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(problems.iter().any(|p| p.contains("bogus")));
        assert!(problems.iter().any(|p| p.contains("hit_rate")));
        assert!(problems.iter().any(|p| p.contains("throughput_mpps")));
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload v6 --seed 3 --seconds 10 --trace 1")).expect("valid");
        assert_eq!((ok.workload.as_str(), ok.seed, ok.trace), ("v6", 3, true));
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload v6 --seed -1 --seconds 10 --trace 0",
            "--workload v6 --seed 3 --seconds 0 --trace 0",
            "--workload v6 --seed 3 --seconds 10 --trace 2",
            "--workload v6 --seed 3 --seconds 10",
            "--workload v6 --seed 3 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&a(bad)).is_err(), "{bad}");
        }
    }
}
