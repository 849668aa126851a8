//! In-memory spans recorded by the benchmark around its calls into the
//! program's public functions. Nothing inside the program is timed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `core.protocol`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was made.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass this span belongs to.
    pub run: u32,
}

impl Span {
    /// Wall time between start and end; 0 for a span a failed pass left
    /// open.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans for the traced passes. A disabled recorder records
/// nothing, so the untraced pass runs the same code without the timers.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Recorder::begin`], consumed by [`Recorder::end`].
#[derive(Debug)]
#[must_use]
pub struct Open(Option<usize>);

impl Recorder {
    /// A disabled recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            enabled: false,
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off for the following passes.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Starts a new pass; later spans carry its id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `span`, which must be the innermost open one.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    pub fn end(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        assert_eq!(self.open.pop(), Some(idx), "spans closed out of order");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// All recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its direct
    /// children cover (children never overlap: the benchmark is one
    /// thread).
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time per span name within pass `run`.
    #[must_use]
    pub fn self_by_name(&self, run: u32) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if s.run == run {
                *out.entry(s.name).or_insert(0) += own;
            }
        }
        out
    }

    /// Total duration per span name within pass `run`.
    #[must_use]
    pub fn total_by_name(&self, run: u32) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.run == run) {
            *out.entry(s.name).or_insert(0) += s.duration_ns();
        }
        out
    }

    /// The spans as JSON lines, one per span.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut rec = Recorder::new();
        rec.set_enabled(true);
        let run = rec.next_run();
        let outer = rec.begin("outer");
        rec.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(outer);
        let own = rec.self_by_name(run);
        let total = rec.total_by_name(run);
        assert!(total["inner"] >= 2_000_000);
        assert_eq!(own["outer"] + total["inner"], total["outer"]);
        assert_eq!(rec.spans()[1].parent, Some(0));

        let mut off = Recorder::new();
        off.time("x", || ());
        assert!(off.spans().is_empty());
    }
}
