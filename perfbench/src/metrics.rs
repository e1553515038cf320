//! Metric names, units and the result a workload run hands back, plus the
//! runtime configurations the workloads run under.

use pgas_nb::sim::config::{EngineKind, NetworkConfig, PointerMode, RuntimeConfig};

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`). A layer
/// the workload leaves idle reads 0: that is the designed layer split.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("atomics.cpu_atomics_per_op", "count"),
    ("atomics.cpu_dcas_per_op", "count"),
    ("atomics.cas_retries_per_op", "count"),
    ("atomics.local_cas_ns", "ns"),
    ("atomics.aba_dcas_ns", "ns"),
    ("epoch.pin_unpin_ns", "ns"),
    ("epoch.defer_delete_ns", "ns"),
    ("epoch.try_reclaim_p50_us", "us"),
    ("epoch.try_reclaim_p99_us", "us"),
    ("epoch.advance_ratio", "ratio"),
    ("epoch.limbo_peak", "count"),
    ("epoch.reclaimed_ratio", "ratio"),
    ("sim.alloc_free_ns", "ns"),
    ("sim.ams_per_op", "count"),
    ("sim.combined_per_batch", "count"),
    ("sim.remote_op_p50_us", "us"),
    ("sim.model_ns_per_op", "ns"),
    ("sim.model_local_share", "ratio"),
    ("sim.model_wire_share", "ratio"),
    ("sim.model_queue_share", "ratio"),
    ("sim.model_handler_share", "ratio"),
    ("sim.model_combine_share", "ratio"),
    ("structures.push_p50_ns", "ns"),
    ("structures.pop_p50_ns", "ns"),
    ("structures.enqueue_p50_ns", "ns"),
    ("structures.dequeue_p50_ns", "ns"),
    ("structures.empty_take_ratio", "ratio"),
    ("structures.local_op_p50_us", "us"),
    ("structures.shard_local_ratio", "ratio"),
    ("structures.get_hit_ratio", "ratio"),
    ("net.fetch_add_p50_us", "us"),
    ("net.dcas_p50_us", "us"),
    ("net.read_wide_p50_us", "us"),
    ("net.get_p50_us", "us"),
    ("net.put_p50_us", "us"),
    ("net.handler_call_p50_us", "us"),
    ("net.handler_service_mean_ns", "ns"),
    ("net.wire_codec_ns", "ns"),
    ("net.loopback_echo_rtt_us", "us"),
    ("net.bytes_per_op", "bytes"),
    ("net.ams_per_op", "count"),
    ("trace_overhead_ratio", "ratio"),
];

/// What one run of a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured phase(s).
    pub attempted: u64,
    /// Ops that failed, timed out or failed a check (plus failed teardown
    /// checks).
    pub failed: u64,
    /// `(name, value)` pairs; names come from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable context lines (sample counts, check results).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Set metric `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|p| p.1)
    }

    /// Record a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.notes.push(format!("CHECK FAILED: {what}"));
    }

    /// Add a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The Aries-class interconnect model, written out so a change to the
/// library's defaults cannot silently move the modeled figures.
pub fn aries(network_atomics: bool) -> NetworkConfig {
    NetworkConfig {
        network_atomics,
        cpu_atomic_ns: 20,
        cpu_dcas_ns: 35,
        nic_atomic_ns: 950,
        am_wire_ns: 700,
        am_handler_ns: 1100,
        rma_ns: 850,
        rma_ns_per_kib: 60,
        remote_heap_op_ns: 120,
        combine_item_ns: 150,
    }
}

/// Runtime configuration with every field written out.
pub fn runtime_config(
    num_locales: usize,
    network_atomics: bool,
    combining: bool,
    engine: EngineKind,
) -> RuntimeConfig {
    RuntimeConfig {
        num_locales,
        progress_threads: 1,
        tasks_per_locale: 2,
        network: aries(network_atomics),
        pointer_mode: PointerMode::Compressed,
        combining,
        combine_max_batch: 64,
        faults: None,
        vread_fastpath: false,
        vread_max_tries: 4,
        engine,
        sym_heap_bytes: 1 << 20,
    }
}
