//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer of the program: name, start, end and parent. They stay in
//! memory while the run measures and are written out at the end. A
//! layer's *self time* is its spans' durations minus the time their
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// Records nested spans and named counters on one thread. A tracer
/// made with [`Tracer::off`] records nothing: its `span` only calls
/// the closure, so untraced rounds share code with traced ones.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if !self.on {
            return;
        }
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Seconds of self time per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Total seconds of the spans named `name` (children included).
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// A per-layer table of self times and counts, per round, for the
    /// spans under the root spans named `root` (`rounds` of them). The
    /// root's own self time is listed as `unattributed`; its share of
    /// the roots' total time is returned alongside the table.
    pub fn layer_table(&self, root: &str, rounds: usize) -> (String, f64) {
        let per_round = 1.0 / rounds.max(1) as f64;
        let total = self.total_seconds(root);
        let own = self.self_seconds();
        let mut text = format!("  {:<36} {:>12} {:>8}\n", "layer", "self s/round", "share");
        for (name, secs) in &own {
            if *name != root {
                let _ = writeln!(
                    text,
                    "  {name:<36} {:>12.6} {:>7.2}%",
                    secs * per_round,
                    100.0 * secs / total
                );
            }
        }
        let unattributed = own.get(root).copied().unwrap_or(0.0);
        let _ = writeln!(
            text,
            "  {:<36} {:>12.6} {:>7.2}%",
            "unattributed",
            unattributed * per_round,
            100.0 * unattributed / total
        );
        for (name, n) in &self.counts {
            let _ = writeln!(
                text,
                "  {name:<36} {:>12.0} (count/round)",
                *n as f64 * per_round
            );
        }
        (text, unattributed / total)
    }

    /// Writes every span as a tab-separated line (`id parent name
    /// start_ns end_ns`; parent `-` for roots), then every counter.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("# id\tparent\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                text,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            );
        }
        for (name, n) in &self.counts {
            let _ = writeln!(text, "# count\t{name}\t{n}");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let own = t.self_seconds();
        let outer = t.total_seconds("outer");
        assert!((own["outer"] + own["inner"] - outer).abs() < 1e-9);
        assert!(own["inner"] >= 0.004 && own["outer"] >= 0.002);
    }
}
