//! The replay trace: spans recorded around the calls into each layer.
//!
//! Spans are held in memory and written as JSON lines when the run ends.
//! Every layer call is a child of its op's span; a layer's self time is
//! its span's duration minus what its own children cover, and the op
//! span's self time is the *unexplained remainder* the reconciliation
//! reports. Spans whose name starts with `ref.` re-run work a sibling
//! already did (a whole `protocol::handle` call next to its replayed
//! parts) and are top-level, so they never count twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`parser.parse`, `op.point`, `ref.handle`).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op_id: u64,
}

/// An open span, returned by [`Tracer::enter`].
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

/// Records spans, or — when disabled — does nothing at all, which is the
/// untraced side of the tracing-overhead comparison.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(ix)) = open {
            self.spans[ix].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(ix), "spans close innermost first");
        }
    }

    /// Wraps one call into a layer in a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0) += t;
        }
        by_name
    }

    /// Total duration (not self time) per span name, ns.
    pub fn durations(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for s in &self.spans {
            *by_name.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        by_name
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (ix, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {ix}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        w.flush()
    }
}

/// The reconciliation verdict of one traced workload.
pub struct Reconciliation {
    /// Share of the ops' traced duration no layer span explains, %.
    pub unexplained_pct: f64,
    /// For serving: replayed parts ÷ whole `handle` calls on the same
    /// requests, as a signed % difference. `None` off the serving path.
    pub parts_vs_handle_pct: Option<f64>,
}

impl Reconciliation {
    /// Both checks within the 15 % tolerance.
    pub fn reconciled(&self) -> bool {
        self.unexplained_pct.abs() <= 15.0
            && self.parts_vs_handle_pct.is_none_or(|d| d.abs() <= 15.0)
    }
}

/// Turns a finished trace into layer metrics: mean self time per op for
/// each `(span name → metric)` pair in `lines`, the mean op duration, the
/// unexplained remainder, and the verdict. `handle_parts` names the spans
/// that replay what `ref.handle` did whole.
pub fn summarize(
    tracer: &Tracer,
    ops: usize,
    lines: &[(&'static str, &'static str)],
    handle_parts: &[&'static str],
    layers: &mut crate::Layers,
) -> Reconciliation {
    let own = tracer.self_times();
    let per_op = |ns: u64| ns as f64 / 1e3 / ops as f64;
    for (span, metric) in lines {
        let ns = own.get(span).copied().unwrap_or(0);
        *layers.entry(metric).or_insert(0.0) += per_op(ns);
    }
    let op_total: u64 = tracer
        .durations()
        .iter()
        .filter(|(name, _)| name.starts_with("op."))
        .map(|(_, ns)| ns)
        .sum();
    let op_self: u64 = own
        .iter()
        .filter(|(name, _)| name.starts_with("op."))
        .map(|(_, ns)| ns)
        .sum();
    layers.insert("trace.op_us", per_op(op_total));
    let unexplained_pct = if op_total == 0 {
        100.0
    } else {
        op_self as f64 * 100.0 / op_total as f64
    };
    layers.insert("trace.unexplained_pct", unexplained_pct);

    // Parts vs whole is compared over the ops that ran both: the parts
    // spans are summed only under ops that also have a `ref.handle`.
    let spans = tracer.spans();
    let whole: u64 = spans
        .iter()
        .filter(|s| s.name == "ref.handle")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let parts_vs_handle_pct = (whole > 0).then(|| {
        let with_ref: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.name == "ref.handle")
            .map(|s| s.op_id)
            .collect();
        let parts: u64 = spans
            .iter()
            .filter(|s| handle_parts.contains(&s.name) && with_ref.contains(&s.op_id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        layers.insert("server.handle_us", per_op(whole));
        (parts as f64 - whole as f64) * 100.0 / whole as f64
    });
    Reconciliation {
        unexplained_pct,
        parts_vs_handle_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let op = t.enter("op.x");
        t.leaf("layer.a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(op);
        let own = t.self_times();
        let total = t.durations();
        assert_eq!(own["op.x"] + own["layer.a"], total["op.x"]);
        assert!(own["layer.a"] >= 2_000_000);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.enter("op.x");
        assert_eq!(t.leaf("layer.a", || 7), 7);
        t.exit(op);
        assert!(t.spans().is_empty());
    }
}
