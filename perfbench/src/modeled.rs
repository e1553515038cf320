//! Per-layer figures from the simulator's own span sink: the modeled
//! (virtual-time) decomposition of a traced phase and the CAS-retry tags
//! of the structures' root spans.

use std::sync::Arc;

use pgas_bench::trace::{self, TraceSpan};
use pgas_nb::sim::telemetry::{unpack_op_tag, RingSink, Span};
use pgas_nb::sim::Runtime;

use crate::metrics::Outcome;
use crate::stats::ratio;

/// Spans the ring holds. The traced phase stops before the ring would
/// evict (see [`ModelTrace::nearly_full`]), so every analyzed trace tree
/// is complete.
const RING_CAPACITY: usize = 1 << 18;

/// The runtime's in-memory span sink, installed for the traced phase.
pub struct ModelTrace {
    ring: Arc<RingSink>,
}

impl ModelTrace {
    /// Install a ring sink on `rt` through its public API.
    pub fn install(rt: &Runtime) -> ModelTrace {
        let ring = Arc::new(RingSink::new(RING_CAPACITY));
        assert!(
            rt.set_telemetry_sink(ring.clone()),
            "a telemetry sink was already installed"
        );
        ModelTrace { ring }
    }

    /// True once the ring is 7/8 full: the traced phase must end.
    pub fn nearly_full(&self) -> bool {
        self.ring.len() >= RING_CAPACITY / 8 * 7
    }

    /// Drain the ring and set the `sim.model_*_share` metrics (the
    /// `pgas_bench::trace` exclusive-time decomposition) and
    /// `atomics.cas_retries_per_op` (retry counts packed into root-span
    /// tags). The analyzer files root classes it does not list as op
    /// classes (the sharded map's) under `other`; that time is the op's
    /// own work, so it counts as local here.
    pub fn finish(self, out: &mut Outcome) {
        let spans: Vec<TraceSpan> = self.ring.take().iter().map(to_trace_span).collect();
        let n = spans.len();
        let a = trace::analyze(spans);
        let mut c = trace::Components::default();
        let (mut roots, mut retries) = (0u64, 0u64);
        for r in &a.per_root {
            let s = &a.spans[r.root];
            c.local += r.comps.local + r.comps.other;
            c.wire += r.comps.wire;
            c.queueing += r.comps.queueing;
            c.handler += r.comps.handler;
            c.combine += r.comps.combine;
            c.retry += r.comps.retry;
            if s.class.ends_with("_op") && s.class != "atomic_object_op" {
                roots += 1;
                retries += unpack_op_tag(s.tag).1;
            }
        }
        let total = c.total() as f64;
        out.set("sim.model_local_share", ratio(c.local as f64, total));
        out.set("sim.model_wire_share", ratio(c.wire as f64, total));
        out.set("sim.model_queue_share", ratio(c.queueing as f64, total));
        out.set("sim.model_handler_share", ratio(c.handler as f64, total));
        out.set("sim.model_combine_share", ratio(c.combine as f64, total));
        out.set(
            "atomics.cas_retries_per_op",
            ratio(retries as f64, roots as f64),
        );
        out.note(format!(
            "model trace: {n} spans, {} trees, {} orphans (ops still in flight at the end), \
             exact accounting: {}",
            a.per_root.len(),
            a.orphans.len(),
            a.accounting_exact()
        ));
    }
}

fn to_trace_span(s: &Span) -> TraceSpan {
    TraceSpan {
        class: s.class.name().to_string(),
        src: s.src as u64,
        dest: s.dest as u64,
        issue: s.issue_vtime,
        arrive: s.arrive_vtime,
        start: s.start_vtime,
        end: s.end_vtime,
        tag: s.tag,
        trace: s.trace,
        span: s.span,
        parent: s.parent,
    }
}
