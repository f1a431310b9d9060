//! In-memory spans recorded around the benchmark's calls into the
//! library's public functions. Nothing is recorded inside the library:
//! a span covers one call, and the layers below it (solver tiers, SAT)
//! are split out afterwards from the counters `RunReport` keeps.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats;

/// One recorded call: its layer name, its interval in nanoseconds since
/// the tracer's origin, and the span that was open when it started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans on one thread. A disabled tracer only runs the
/// wrapped calls, so untraced runs pay one branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
}

/// Per-layer totals over all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: None }
    }

    /// Runs `f` inside a span named `name`, nested under the span that
    /// is currently open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open;
        self.spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent });
        self.open = Some(idx);
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open = parent;
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`, in call order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Total and self time per layer name (see [`layer_times`]).
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }
}

/// Sums, per layer name, the call count, the total span time and the
/// self time: each span's duration minus the durations of the spans
/// directly nested in it.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_s) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_s += s.secs();
        e.self_s += stats::self_time(s.secs(), &[children]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // explore [0, 100] ⊃ step [10, 40] ⊃ inner [20, 30]; step [50, 90].
        let spans = [
            span("explore", 0, 100, None),
            span("step", 10, 40, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("step", 50, 90, Some(0)),
        ];
        let l = layer_times(&spans);
        let ns = 1e-9;
        assert_eq!(l["explore"].calls, 1);
        assert!((l["explore"].self_s - 30.0 * ns).abs() < 1e-15);
        assert_eq!(l["step"].calls, 2);
        assert!((l["step"].total_s - 70.0 * ns).abs() < 1e-15);
        assert!((l["step"].self_s - 60.0 * ns).abs() < 1e-15);
        assert!((l["inner"].self_s - 10.0 * ns).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", |t| t.span("inner", |_| 7) + 1);
        assert_eq!(v, 8);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 1)), 1);
        assert!(off.spans().is_empty());
    }
}
