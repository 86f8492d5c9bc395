//! Spans recorded around calls into the program's layers.
//!
//! Every timed section goes through [`Tracer::time`], traced or not, so
//! the two kinds of run execute the same code; the traced run also
//! pushes one [`Span`] per section into a `Vec` that is written out when
//! the run ends. The difference between the two runs' `run_s` is the
//! tracing overhead (`trace.overhead_frac`).

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One timed section. `parent` is the span that caused it (`None` for
/// the root); a layer's self time is its duration minus its children's.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub workload: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: the parent of the next span.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str) -> Self {
        Tracer {
            enabled,
            workload: workload.to_owned(),
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` as a child span of the innermost open span and returns
    /// its result with the elapsed seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                name: name.to_owned(),
                workload: self.workload.clone(),
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
            });
            self.stack.push(id);
            id
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.spans[id].end_ns = (end - self.origin).as_nanos() as u64;
            self.stack.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// part its direct children cover, summed over spans of the same name
/// with any `[index]` suffix removed.
pub fn self_times(spans: &[Span]) -> Vec<(String, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut totals = std::collections::BTreeMap::<String, f64>::new();
    for s in spans {
        let name = s.name.split('[').next().unwrap_or(&s.name).to_owned();
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
        *totals.entry(name).or_default() += own as f64 / 1e9;
    }
    let mut out: Vec<_> = totals.into_iter().collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}
