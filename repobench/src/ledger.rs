//! The traced run's span recorder. Spans are kept in memory, one per
//! call into a layer's public function made from this benchmark's own
//! files, and folded into a cost ledger at the end: each layer's self
//! time (its spans minus the part their child spans cover) plus the
//! root's own remainder as an explicit `unattributed` row, so the rows
//! add up to the total.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Instant,
    dur: Duration,
    parent: Option<usize>,
}

#[derive(Default)]
pub struct Ledger {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Ledger {
    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ledger) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: Instant::now(),
            dur: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].dur = self.spans[id].start.elapsed();
        out
    }

    /// Total duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .sum()
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn samples_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect()
    }

    /// Self time per span name, in milliseconds, over the subtrees
    /// rooted at spans named `root`. The root's own self time is the
    /// `unattributed` row.
    pub fn self_times(&self, root: &str) -> Vec<(String, f64)> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.dur.as_secs_f64() * 1e3;
            }
        }
        let under_root = |mut i: usize| loop {
            if self.spans[i].name == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut unattributed = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if !under_root(i) {
                continue;
            }
            let self_ms = s.dur.as_secs_f64() * 1e3 - child_ms[i];
            if s.name == root {
                unattributed += self_ms;
            } else {
                *rows.entry(s.name).or_default() += self_ms;
            }
        }
        let mut out: Vec<(String, f64)> =
            rows.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        out.push(("unattributed".to_string(), unattributed));
        out
    }
}

/// Prints a ledger as a table with each row's share of the total.
pub fn print_ledger(title: &str, rows: &[(String, f64)]) {
    let total: f64 = rows.iter().map(|r| r.1).sum();
    println!("ledger: {title} (total {total:.3} ms; rows add up to the total)");
    for (name, ms) in rows {
        println!(
            "  {name:<28} {ms:>12.3} ms  {:>6.2}%",
            100.0 * crate::stats::ratio(*ms, total)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_the_residual_add_up_to_the_root() {
        let mut l = Ledger::default();
        l.span("root", |l| {
            l.span("a", |l| {
                l.span("b", |_| std::thread::sleep(Duration::from_millis(2)));
            });
            std::thread::sleep(Duration::from_millis(1));
        });
        let rows = l.self_times("root");
        let names: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "unattributed"]);
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        assert!((sum - l.total_ms("root")).abs() < 1e-6);
        assert!(rows[1].1 >= 2.0 && rows[2].1 >= 1.0);
    }
}
