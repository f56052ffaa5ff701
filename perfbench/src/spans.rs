//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name (`layer.entry`),
//! start and end on one monotonic clock, the span that caused it, the
//! burst it belongs to, and how many items (addresses, messages,
//! prefixes) it handled. Spans stay in memory and are written out once,
//! when the run ends, so the file system never sits on the timed path.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The clock every timing in the benchmark reads.
pub const CLOCK: &str = "std::time::Instant (CLOCK_MONOTONIC)";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub burst: u64,
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; when disabled, [`Recorder::time`] only
/// runs the closure, which is the untraced twin of a traced replay.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; spans opened before it closes become its children.
    pub fn enter(&mut self, name: &'static str, burst: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            burst,
            items: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span, recording how many items it
    /// handled.
    pub fn exit(&mut self, items: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = end_ns;
        self.spans[id].items = items;
    }

    /// Time `f` as one span handling `items` items.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        burst: u64,
        items: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(name, burst);
        let r = f();
        self.exit(items);
        r
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off; an untraced pass runs the same code
    /// with the clock reads and span pushes skipped.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"burst\": {}, \"items\": {}}}",
                s.name, s.start_ns, s.end_ns, s.burst, s.items
            )?;
        }
        f.flush()
    }
}

/// Per-span self time: the span's duration minus the part of its
/// interval that its children cover (overlapping children count once,
/// and a child sticking out of its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

/// Total duration and items of every span with `name`.
pub fn totals(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + s.items))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            burst: 0,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("replay.burst", 0, 100, None),
            span("cache.probe_batch", 10, 30, Some(0)),
            // Overlaps the first child: [20, 40) adds only [30, 40).
            span("lpm.lookup_batch", 20, 40, Some(0)),
            // Sticks out of the parent: only [90, 100) is inside it.
            span("cache.fill", 90, 120, Some(0)),
            // A grandchild is its parent's business, not the burst's.
            span("core.home_of", 12, 18, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![100 - 30 - 10, 20 - 6, 20, 30, 6]);
        let by_layer = layer_self_times(&spans);
        assert_eq!(by_layer["replay"], 60);
        assert_eq!(by_layer["cache"], 14 + 30);
        assert_eq!(by_layer["lpm"], 20);
        assert_eq!(by_layer["core"], 6);
    }

    #[test]
    fn recorder_nests_and_disables() {
        let mut r = Recorder::new(true);
        r.enter("replay.burst", 7);
        let x = r.time("cache.probe_batch", 7, 32, || 41 + 1);
        r.exit(32);
        assert_eq!(x, 42);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].burst, 7);
        assert_eq!(s[1].items, 32);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(totals(s, "cache.probe_batch").1, 32);

        let mut off = Recorder::new(false);
        off.enter("replay.burst", 0);
        assert_eq!(off.time("cache.fill", 0, 1, || 5), 5);
        off.exit(0);
        assert!(off.spans().is_empty());
    }
}
