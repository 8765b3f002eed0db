//! Benchmark-side spans: one record per call the benchmark makes into a
//! layer of the stack (name, layer, start, end, parent, op id), kept in
//! memory and written out as JSONL when the run ends. Nothing is
//! recorded while the tracer is off, so the untraced runs pay one
//! branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `serve_predict`.
    pub name: &'static str,
    /// The layer the call enters (a module name of the stack, or
    /// `bench` for the benchmark's own work).
    pub layer: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Workload operation the span belongs to.
    pub op: u64,
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (inert when the tracer is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only when `on`; `epoch` anchors times so
    /// tracers of several threads share one clock.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `span` (which must be the innermost open span).
    pub fn exit(&mut self, span: Open) {
        let Open(Some(idx)) = span else { return };
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.enter(layer, name, op);
        let out = f();
        self.exit(span);
        out
    }

    /// Records an already-measured interval (e.g. a request timed on
    /// another clock) as a closed span.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            layer,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            op,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part of its interval covered by its direct children (overlapping
/// children are merged first, so the cover is never counted twice).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut cover: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        cover.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in cover {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0) += own;
    }
    out
}

/// The spans as JSONL, one object per line, in recording order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
            s.name, s.layer, s.start_ns, s.end_ns, s.op
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // bench [0,100) ⊃ runtime [10,70) ⊃ model [20,50);
        // bench also holds checkpoint [70,90).
        let spans = vec![
            span("bench", 0, 100, None),
            span("runtime", 10, 70, Some(0)),
            span("model", 20, 50, Some(1)),
            span("checkpoint", 70, 90, Some(0)),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["bench"], 100 - 60 - 20);
        assert_eq!(t["runtime"], 60 - 30);
        assert_eq!(t["model"], 30);
        assert_eq!(t["checkpoint"], 20);
        // Self times partition the root interval exactly.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // Two concurrent client calls under one root: [10,60) and
        // [40,80) cover [10,80) once.
        let spans = vec![
            span("bench", 0, 100, None),
            span("serve", 10, 60, Some(0)),
            span("serve", 40, 80, Some(0)),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["bench"], 30);
        assert_eq!(t["serve"], 90);
    }

    #[test]
    fn nested_recording_links_parents_and_is_inert_when_off() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(true, epoch);
        let root = tr.enter("bench", "op", 7);
        tr.time("runtime", "serve_predict", 7, || {
            std::hint::black_box(1 + 1)
        });
        tr.exit(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(to_jsonl(spans).lines().count(), 2);

        let mut off = Tracer::new(false, epoch);
        let root = off.enter("bench", "op", 0);
        off.exit(root);
        assert!(off.spans().is_empty());
    }
}
