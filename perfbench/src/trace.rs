//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each
//! layer's public functions: name, start, end and parent, with counts
//! taken at the same boundaries. They stay in memory until
//! [`Tracer::dump`] writes them out at the end of the run. A span's
//! self time is its duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts recorded while this span was the innermost open one.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread (spans are strictly nested, so
/// children never overlap each other).
#[derive(Debug)]
pub struct Tracer {
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(run_id: u64) -> Self {
        Tracer {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The instant spans are measured from; a subscriber that times
    /// its own calls stamps them against this.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Adds already-timed intervals (`(start_ns, end_ns)` against
    /// [`Tracer::origin`]) as children of the innermost open span —
    /// for calls timed by a wrapper the library invokes.
    pub fn adopt(&mut self, name: &'static str, intervals: &[(u64, u64)]) {
        let parent = self.open.last().copied();
        self.spans
            .extend(intervals.iter().map(|&(start_ns, end_ns)| Span {
                name,
                parent,
                start_ns,
                end_ns,
                counts: Vec::new(),
            }));
    }

    /// Adds `value` to the run-wide count `name`, and records it on the
    /// innermost open span.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
        if let Some(&index) = self.open.last() {
            self.spans[index].counts.push((name, value));
        }
    }

    /// Raises the run-wide gauge `name` to at least `value`.
    pub fn peak(&mut self, name: &'static str, value: f64) {
        let slot = self.counts.entry(name).or_insert(value);
        *slot = slot.max(value);
    }

    /// Run-wide count or gauge, `0.0` if never recorded.
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Summed duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Self time of each span, in nanoseconds: its duration minus the
    /// time covered by its direct children.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(span, children)| span.duration_ns().saturating_sub(children))
            .collect()
    }

    /// Summed self time per span name over the spans that started in
    /// `[from_ns, to_ns)`, in milliseconds.
    pub fn self_ms_by_name(&self, from_ns: u64, to_ns: u64) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            if (from_ns..to_ns).contains(&span.start_ns) {
                *totals.entry(span.name).or_default() += self_ns as f64 / 1e6;
            }
        }
        totals
    }

    /// Summed duration of the top-level spans that started in
    /// `[from_ns, to_ns)`, in milliseconds.
    pub fn top_level_ms(&self, from_ns: u64, to_ns: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && (from_ns..to_ns).contains(&s.start_ns))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((id, span), self_ns) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = span
                .counts
                .iter()
                .map(|(name, value)| format!("\"{name}\": {value}"))
                .collect();
            writeln!(
                out,
                "{{\"run\": {}, \"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"counts\": {{{}}}}}",
                self.run_id,
                span.name,
                span.start_ns,
                span.end_ns,
                counts.join(", ")
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(1);
        tracer.span("outer", |t| {
            t.span("inner", |t| t.count("work", 2.0));
            t.span("inner", |t| t.count("work", 3.0));
        });
        let wall = tracer.now_ns();
        let selfs = tracer.self_ms_by_name(0, wall);
        let outer = tracer.total_ms("outer");
        let inner = tracer.total_ms("inner");
        assert!((selfs["outer"] - (outer - inner)).abs() < 1e-6);
        assert!((selfs.values().sum::<f64>() - tracer.top_level_ms(0, wall)).abs() < 1e-6);
        assert_eq!(tracer.counted("work"), 5.0);
        assert_eq!(tracer.spans()[1].parent, Some(0));
    }
}
