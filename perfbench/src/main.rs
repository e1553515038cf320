//! `perfbench`: the repository's wall-clock benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload shm-churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Three closed-loop workloads, each with two client tasks in total, drive
//! the public APIs of the workspace crates (see `README.md` in this
//! directory); `--workload all` runs them in turn. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` is a separate run that times the calls
//! into each layer and prints the per-layer metrics. The last stdout line
//! of a workload's report is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed output
//! check makes the exit code nonzero. `--self-test` plants one bad result
//! per workload and shows that each workload's check fires.

mod cpu;
mod ladder;
mod map_zipf;
mod metrics;
mod modeled;
mod proc_rma;
mod shm_churn;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Duration;

use pgas_nb::sim::RuntimeCore;

use metrics::{Outcome, END_TO_END, PER_LAYER};

/// Workload names, in the order `--self-test` runs them.
const WORKLOADS: [&str; 3] = ["shm-churn", "map-zipf", "proc-rma"];

/// Settings of one run, parsed from the command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Plant one bad result so the workload's check must fire.
    pub plant: bool,
    /// Where traced runs write their span logs.
    pub span_dir: PathBuf,
}

impl RunCfg {
    /// Unrecorded warm-up before each run's first measured phase.
    pub fn warm(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 5.0).min(1.0))
    }

    /// Length of the untraced measured phase (the traced run splits its
    /// time between an untraced and a traced phase).
    pub fn untraced(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }

    /// Length of the traced phase (it may end early when a span buffer
    /// fills).
    pub fn traced(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }

    /// Window length: medians are taken over windows of this size.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 20.0).clamp(0.05, 0.5))
    }
}

/// What a phase records besides its per-window op latencies.
#[derive(Clone, Copy)]
pub enum Tracing<'a> {
    /// Nothing more: the end-to-end measurement.
    Off,
    /// The benchmark's own wall spans around each public call.
    Spans,
    /// The runtime's span sink (modeled time), until its ring fills.
    Model(&'a modeled::ModelTrace),
}

impl Tracing<'_> {
    /// The span cap of a client's log in this mode.
    pub fn span_cap(self) -> Option<usize> {
        matches!(self, Tracing::Spans).then_some(stats::SPAN_CAP)
    }

    /// True when the phase must end because a buffer would overflow.
    pub fn must_stop(self, log: &stats::PhaseLog) -> bool {
        log.spans_full() || matches!(self, Tracing::Model(m) if m.nearly_full())
    }
}

/// Record the end-to-end metrics of an untraced phase.
pub fn set_end_to_end(out: &mut Outcome, s: &stats::PhaseSummary, setup_secs: &[f64]) {
    out.set("ops_per_s", s.ops_per_s);
    out.set("op_p50_us", s.p50_ns / 1e3);
    out.set("op_p99_us", s.p99_ns / 1e3);
    out.set("setup_s", stats::median(setup_secs));
    out.note(format!(
        "latency samples: {} over {} windows (p50/p99/ops_per_s are medians over windows)",
        s.samples, s.windows
    ));
    out.note(format!(
        "setup_s samples: {}",
        setup_secs
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}

/// Run `clients` client tasks of `body` on the current locale of `rt`,
/// each pinned to its own CPU, and return their results in client order.
pub fn run_clients<T: Send>(
    rt: &RuntimeCore,
    clients: usize,
    body: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = (0..clients).map(|_| Mutex::new(None)).collect();
    rt.run(|| {
        rt.coforall_tasks(clients, |t| {
            cpu::pin_client(t, clients);
            let result = body(t);
            *slots[t].lock().expect("client result slot poisoned") = Some(result);
        })
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("client result slot poisoned")
                .expect("every client reports")
        })
        .collect()
}

/// Write a traced run's spans to `<span dir>/<file>` and note where.
pub fn save_spans(cfg: &RunCfg, file: &str, spans: &[stats::WallSpan], out: &mut Outcome) {
    let path = cfg.span_dir.join(file);
    match stats::write_spans(&path, spans) {
        Ok(()) => out.note(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.note(format!("spans: could not write {}: {e}", path.display())),
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --self-test",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{a} takes a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.2..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 0.2..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok((
        workload,
        RunCfg {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            plant: false,
            span_dir: span_dir(),
        },
    ))
}

/// `<cargo target dir>/perfbench-spans`, derived from this executable's
/// location so span logs stay inside the build directory.
fn span_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("perfbench-spans")))
        .unwrap_or_else(|| PathBuf::from("perfbench-spans"))
}

fn run(workload: &str, cfg: &RunCfg) -> Outcome {
    match workload {
        "shm-churn" => shm_churn::run(cfg),
        "map-zipf" => map_zipf::run(cfg),
        "proc-rma" => proc_rma::run(cfg),
        other => unreachable!("workload {other} passed argument validation"),
    }
}

/// Print every metric by name with its unit, then the JSON result line.
fn report(workload: &str, cfg: &RunCfg, out: &Outcome) -> bool {
    let names = if cfg.trace { PER_LAYER } else { END_TO_END };
    let correct = out.failed == 0;
    println!(
        "perfbench {workload} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for line in &out.notes {
        println!("  {line}");
    }
    let mut json = String::new();
    for (name, unit) in names {
        // A per-layer metric of a layer this workload leaves idle reads 0;
        // every end-to-end metric must be measured unless the run failed.
        let value = match out.get(name) {
            Some(v) => v,
            None if cfg.trace || !correct => 0.0,
            None => panic!("{workload} did not report {name}"),
        };
        println!("  {name:<32} {value:>16.6} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        ));
    }
    println!(
        "  {:<32} {:>16.6} ratio  ({} failed of {} attempted)",
        "op_error_rate",
        stats::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted.max(1),
        out.failed
    );
    correct
}

/// A JSON number with all its digits (`f64`'s shortest round-trip form).
fn json_num(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Plant one bad result per workload and confirm each check fires; also
/// confirm `BENCHMARK.json` (when present) names exactly this binary's
/// metrics.
fn self_test() -> bool {
    let mut ok = true;
    for w in WORKLOADS {
        let cfg = RunCfg {
            seed: 7,
            seconds: 1.0,
            trace: false,
            plant: true,
            span_dir: span_dir(),
        };
        let out = run(w, &cfg);
        let fired = out.failed > 0;
        println!(
            "self-test {w}: planted bad result {} ({} failed of {} attempted)",
            if fired { "caught" } else { "NOT caught" },
            out.failed,
            out.attempted
        );
        ok &= fired;
    }
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => match benchmark_names_match(&text) {
            Ok(()) => println!("self-test BENCHMARK.json: metric names match"),
            Err(e) => {
                println!("self-test BENCHMARK.json: {e}");
                ok = false;
            }
        },
        Err(_) => println!("self-test BENCHMARK.json: not found in the working directory, skipped"),
    }
    ok
}

fn benchmark_names_match(text: &str) -> Result<(), String> {
    use pgas_bench::json::{self, Value};
    let doc = json::parse(text)?;
    let names = |key: &str| -> Result<Vec<(String, String)>, String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("missing array {key:?}"))?
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
                Ok((
                    s("name").ok_or("metric without a name")?,
                    s("unit").ok_or("metric without a unit")?,
                ))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        if names(key)? != own(list) {
            return Err(format!("{key} differs from the binary's metric list"));
        }
    }
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("missing array \"workloads\"")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    if workloads != WORKLOADS {
        return Err(format!("workloads {workloads:?} differ from {WORKLOADS:?}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    // Re-executed as a proc-rma agent? Run it and exit before argv.
    proc_rma::maybe_run_agent();

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return if self_test() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let (workload, cfg) = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| workload == "all" || **w == workload)
    {
        correct &= report(w, &cfg, &run(w, &cfg));
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
