//! Host-clock measurement helpers: a span recorder that exports through
//! `rt::obs`, order statistics, and the process's peak resident memory.

use afsb_rt::obs::{ObsSession, SpanId};
use std::collections::BTreeMap;
use std::time::Instant;

/// One host-clock span: seconds since the recorder's origin.
#[derive(Debug, Clone)]
struct HostSpan {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
    counters: Vec<(&'static str, f64)>,
}

/// Handle to an open or closed host span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span(usize);

/// Records host-clock spans around calls into each layer. Spans are kept
/// in memory and laid into an `rt::obs::Tracer` (parents first, each
/// child under its cause via `child_span`) only when the run ends, so
/// recording costs two clock reads and one push per span.
pub struct HostTrace {
    origin: Instant,
    spans: Vec<HostSpan>,
}

impl HostTrace {
    pub fn new() -> HostTrace {
        HostTrace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span under `parent` (a root when `None`).
    pub fn open(&mut self, parent: Option<Span>, name: impl Into<String>) -> Span {
        let start_s = self.now_s();
        self.spans.push(HostSpan {
            name: name.into(),
            parent: parent.map(|p| p.0),
            start_s,
            end_s: f64::NAN,
            counters: Vec::new(),
        });
        Span(self.spans.len() - 1)
    }

    /// Close a span at the current host clock.
    pub fn close(&mut self, span: Span) {
        self.spans[span.0].end_s = self.now_s();
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<T>(&mut self, parent: Span, name: &str, f: impl FnOnce() -> T) -> T {
        let span = self.open(Some(parent), name);
        let out = f();
        self.close(span);
        out
    }

    /// Attach a work counter to a span (exported as a span attribute).
    pub fn count(&mut self, span: Span, key: &'static str, value: f64) {
        self.spans[span.0].counters.push((key, value));
    }

    /// The most recently opened span, for attaching counters right after
    /// [`HostTrace::time`].
    pub fn last(&self) -> Span {
        Span(self.spans.len() - 1)
    }

    /// The most recent root span named `name`.
    pub fn root(&self, name: &str) -> Option<Span> {
        self.spans
            .iter()
            .rposition(|s| s.parent.is_none() && s.name == name)
            .map(Span)
    }

    pub fn seconds(&self, span: Span) -> f64 {
        let s = &self.spans[span.0];
        s.end_s - s.start_s
    }

    /// Inclusive seconds of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .collect()
    }

    /// Sum of counter `key` over every span named `name`.
    pub fn counter(&self, name: &str, key: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| &s.counters)
            .filter(|(k, _)| *k == key)
            .fold(0.0, |acc, (_, v)| acc + v)
    }

    /// Self seconds per span name: each span's duration minus the part
    /// its children cover (children run sequentially, so they never
    /// overlap), summed over every span of that name.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_s - s.start_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_s - s.start_s;
            }
        }
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            *out.entry(s.name.clone()).or_insert(0.0) += own;
        }
        out
    }

    /// Lay every span into a fresh `rt::obs` session: roots via
    /// `closed_span`, children via `child_span` under their cause.
    pub fn to_obs(&self) -> ObsSession {
        let mut obs = ObsSession::new();
        let mut ids: Vec<Option<SpanId>> = vec![None; self.spans.len()];
        // Parents are always recorded before their children.
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_s - s.start_s;
            let id = match s.parent.and_then(|p| ids[p]) {
                Some(parent) => obs.tracer.child_span(parent, &s.name, s.start_s, dur),
                None => obs.tracer.closed_span(&s.name, s.start_s, dur),
            };
            for &(key, value) in &s.counters {
                obs.tracer.span_attr(id, key, value);
            }
            ids[i] = Some(id);
        }
        obs
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile with at least ten samples beyond it, and
/// its value (nearest rank), or `None` below eleven samples.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Largest p with n - ceil(p/100 * n) >= 10.
    let p = (1..100u32)
        .rev()
        .find(|&p| n - ((p as usize * n).div_ceil(100)) >= 10)?;
    let rank = (p as usize * n).div_ceil(100).max(1);
    Some((p, v[rank - 1]))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90, 90.0)));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = HostTrace::new();
        let root = t.open(None, "root");
        t.time(root, "child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let own = t.self_seconds();
        let total = t.seconds(root);
        assert!((own["root"] + own["child"] - total).abs() < 1e-12);
        assert_eq!(t.to_obs().tracer.span_count(), 2);
    }
}
