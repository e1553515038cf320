//! `shm-churn`: one locale, two client tasks, write-only 25/25/25/25
//! push/pop/enqueue/dequeue on a `LockFreeStack` and an `MsQueue`, with an
//! EBR `try_reclaim` on both structures every 128 ops of a client.
//!
//! Atomics, epoch reclamation, the structures and the simulated heap do
//! all the work; the engine sends no active messages.
//!
//! Checks: every value pushed or enqueued is taken at most once (after the
//! teardown drain, the multiset taken equals the multiset put, compared
//! by count and a 64-bit mixed checksum); each client dequeues any one
//! producer's values in enqueue order; teardown leaves no live objects.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pgas_nb::epoch::ReclaimSnapshot;
use pgas_nb::sim::config::EngineKind;
use pgas_nb::sim::vtime;
use pgas_nb::sim::Runtime;
use pgas_nb::structures::{LockFreeStack, MsQueue};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::metrics::{runtime_config, Outcome};
use crate::modeled::ModelTrace;
use crate::stats::{all_spans, mix64, ratio, span_slices, Clock, PhaseLog, SpanLog, Windows};
use crate::{run_clients, save_spans, set_end_to_end, RunCfg, Tracing};

const CLIENTS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;
/// Ops per client input stream (cycled if a run outpaces it).
const STREAM_LEN: usize = 1 << 22;
const RECLAIM_EVERY: usize = 128;
/// Value layout: producer in the top bits, sequence below.
const SEQ_BITS: u32 = 40;

const PUSH: u8 = 0;
const POP: u8 = 1;
const ENQUEUE: u8 = 2;
const DEQUEUE: u8 = 3;

/// Count and wrapping checksum of a multiset of values.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    n: u64,
    sum: u64,
}

impl Tally {
    fn add(&mut self, v: u64) {
        self.n += 1;
        self.sum = self.sum.wrapping_add(mix64(v));
    }

    fn merge(&mut self, o: Tally) {
        self.n += o.n;
        self.sum = self.sum.wrapping_add(o.sum);
    }
}

/// One client's state; it persists across the run's phases.
struct Client {
    stream: Vec<u8>,
    pos: usize,
    seq: u64,
    /// `[stack, queue]`: values this client put / took.
    put: [Tally; 2],
    took: [Tally; 2],
    /// Per producer: one past the last queue sequence this client took.
    fifo_next: [u64; CLIENTS],
    fifo_violations: u64,
    takes: u64,
    empty_takes: u64,
    reclaim_calls: u64,
    limbo_peak: u64,
    planted: bool,
}

struct Setup {
    stack: LockFreeStack<u64>,
    queue: MsQueue<u64>,
    clients: Vec<Mutex<Client>>,
    rt: Runtime,
}

fn setup(seed: u64) -> Setup {
    let clients = (0..CLIENTS)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(seed ^ mix64(0x5eed_0000 + c as u64));
            let mut stream = Vec::with_capacity(STREAM_LEN);
            while stream.len() < STREAM_LEN {
                let bits = rng.next_u64();
                stream.extend((0..32).map(|k| ((bits >> (2 * k)) & 3) as u8));
            }
            Mutex::new(Client {
                stream,
                pos: 0,
                seq: 0,
                put: Default::default(),
                took: Default::default(),
                fifo_next: [0; CLIENTS],
                fifo_violations: 0,
                takes: 0,
                empty_takes: 0,
                reclaim_calls: 0,
                limbo_peak: 0,
                planted: false,
            })
        })
        .collect();
    let rt = Runtime::new(runtime_config(1, false, false, EngineKind::Sim));
    let (stack, queue) = rt.run(|| (LockFreeStack::new(), MsQueue::new()));
    Setup {
        stack,
        queue,
        clients,
        rt,
    }
}

fn limbo(s: &ReclaimSnapshot) -> u64 {
    s.objects_deferred.saturating_sub(s.objects_reclaimed)
}

/// Run one closed-loop phase on both clients.
fn phase(s: &Setup, clock: &Clock, tracing: Tracing, plant: bool) -> Vec<PhaseLog> {
    let stop = AtomicBool::new(false);
    run_clients(&s.rt, CLIENTS, |t| {
        let mut c = s.clients[t].lock().expect("client state poisoned");
        let c = &mut *c;
        let ts = s.stack.register();
        let tq = s.queue.register();
        let mut log = PhaseLog::new(clock, t, tracing.span_cap());
        let mut vt0 = None;
        let mut prev = Instant::now();
        let mut i = 0usize;
        while prev < clock.end && !stop.load(Ordering::Relaxed) {
            if vt0.is_none() && prev >= clock.measure_start {
                vt0 = Some(vtime::now());
            }
            let op = c.stream[c.pos % STREAM_LEN];
            c.pos += 1;
            i += 1;
            log.issued += 1;
            let (name, took) = match op {
                PUSH | ENQUEUE => {
                    let v = ((t as u64) << SEQ_BITS) | c.seq;
                    c.seq += 1;
                    if op == PUSH {
                        s.stack.push(&ts, v);
                        c.put[0].add(v);
                        ("push", None)
                    } else {
                        s.queue.enqueue(&tq, v);
                        c.put[1].add(v);
                        ("enqueue", None)
                    }
                }
                POP => ("pop", Some((0, s.stack.pop(&ts)))),
                DEQUEUE => ("dequeue", Some((1, s.queue.dequeue(&tq)))),
                other => unreachable!("op code {other} outside 0..4"),
            };
            let end = Instant::now();
            let measured = log
                .windows
                .record(clock, end, (end - prev).as_nanos() as u64);
            log.ops += u64::from(measured);
            if let Some(spans) = &mut log.spans {
                spans.record(name, 0, prev, end);
            }
            if let Some((which, got)) = took {
                c.takes += 1;
                match got {
                    None => c.empty_takes += 1,
                    Some(v) => {
                        c.took[which].add(v);
                        if plant && measured && t == 0 && !c.planted {
                            // Planted bad result: account one value as
                            // taken twice.
                            c.took[which].add(v);
                            c.planted = true;
                        }
                        if which == 1 {
                            let producer = (v >> SEQ_BITS) as usize;
                            let seq = v & ((1 << SEQ_BITS) - 1);
                            if seq < c.fifo_next[producer] {
                                c.fifo_violations += 1;
                            }
                            c.fifo_next[producer] = seq + 1;
                        }
                    }
                }
            }
            prev = end;
            if i.is_multiple_of(RECLAIM_EVERY) {
                let r0 = Instant::now();
                s.stack.try_reclaim();
                let r1 = Instant::now();
                s.queue.try_reclaim();
                let r2 = Instant::now();
                c.reclaim_calls += 2;
                if let Some(spans) = &mut log.spans {
                    spans.record("try_reclaim", 0, r0, r1);
                    spans.record("try_reclaim", 0, r1, r2);
                    let l = limbo(&s.stack.epoch_manager().stats())
                        + limbo(&s.queue.epoch_manager().stats());
                    c.limbo_peak = c.limbo_peak.max(l);
                }
                if tracing.must_stop(&log) {
                    stop.store(true, Ordering::Relaxed);
                }
                // The reclaim pause is in no op's latency sample; it shows
                // only in throughput.
                prev = r2;
            }
        }
        log.vt_ns = vt0.map_or(0, |v0| vtime::now() - v0);
        log
    })
}

/// Drain both structures, run every output check, tear down.
fn teardown(s: Setup, out: &mut Outcome) {
    let mut put = [Tally::default(); 2];
    let mut took = [Tally::default(); 2];
    let mut fifo_violations = 0;
    for c in &s.clients {
        let c = c.lock().expect("client state poisoned");
        for k in 0..2 {
            put[k].merge(c.put[k]);
            took[k].merge(c.took[k]);
        }
        fifo_violations += c.fifo_violations;
    }
    s.rt.run(|| {
        let ts = s.stack.register();
        while let Some(v) = s.stack.pop(&ts) {
            took[0].add(v);
        }
        let tq = s.queue.register();
        while let Some(v) = s.queue.dequeue(&tq) {
            took[1].add(v);
        }
    });
    for (k, name) in ["stack", "queue"].iter().enumerate() {
        if put[k] != took[k] {
            out.fail(format!(
                "{name}: {} values put, {} taken (drain included) or checksums differ",
                put[k].n, took[k].n
            ));
        } else {
            out.note(format!(
                "{name}: {} values put, each taken exactly once",
                put[k].n
            ));
        }
    }
    if fifo_violations > 0 {
        out.fail(format!(
            "queue: {fifo_violations} dequeues out of one producer's order"
        ));
    }
    let Setup {
        stack,
        queue,
        clients,
        rt,
    } = s;
    rt.run(|| {
        stack.clear_reclaim();
        queue.clear_reclaim();
        drop(stack);
        drop(queue);
    });
    drop(clients);
    let live = rt.live_objects();
    if live != 0 {
        out.fail(format!("teardown left {live} live objects"));
    }
}

/// Run `shm-churn` as `cfg` says.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let repeats = if cfg.trace { 1 } else { SETUP_REPEATS };
    let mut setup_secs = Vec::new();
    let mut s = None;
    for _ in 0..repeats {
        drop(s.take());
        let t0 = Instant::now();
        s = Some(setup(cfg.seed));
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    s.rt.reset_metrics();

    let clock = Clock::start(cfg.warm(), cfg.untraced(), cfg.window());
    let logs = phase(&s, &clock, Tracing::Off, cfg.plant);
    let summary = Windows::merged(logs.iter().map(|l| &l.windows)).summary(clock.window_secs());
    let untraced_ops: u64 = logs.iter().map(|l| l.ops).sum();
    out.attempted = untraced_ops;
    let makespan = logs.iter().map(|l| l.vt_ns).max().unwrap_or(0);

    if !cfg.trace {
        set_end_to_end(&mut out, &summary, &setup_secs);
    } else {
        // Counters cover the whole untraced phase, warm-up included.
        let counters = s.rt.total_comm();
        let issued: u64 = logs.iter().map(|l| l.issued).sum();
        let per_op = |v: u64| ratio(v as f64, issued as f64);
        out.set("atomics.cpu_atomics_per_op", per_op(counters.cpu_atomics));
        out.set("atomics.cpu_dcas_per_op", per_op(counters.cpu_dcas));
        out.set("sim.ams_per_op", per_op(counters.am_sent));
        out.set(
            "sim.combined_per_batch",
            ratio(counters.combined_ops as f64, counters.combines as f64),
        );
        out.set(
            "sim.model_ns_per_op",
            ratio(makespan as f64, untraced_ops as f64),
        );

        let before = |c: &Mutex<Client>| {
            let c = c.lock().expect("client state poisoned");
            (c.takes, c.empty_takes, c.reclaim_calls)
        };
        let pre: Vec<_> = s.clients.iter().map(before).collect();
        let em_pre = (
            s.stack.epoch_manager().stats(),
            s.queue.epoch_manager().stats(),
        );
        let clock = Clock::start(Duration::ZERO, cfg.traced(), cfg.window());
        let t0 = Instant::now();
        let logs = phase(&s, &clock, Tracing::Spans, false);
        let traced_secs = t0.elapsed().as_secs_f64();
        let traced_ops: u64 = logs.iter().map(|l| l.ops).sum();
        out.attempted += traced_ops;
        out.set(
            "trace_overhead_ratio",
            ratio(
                traced_ops as f64 / traced_secs,
                untraced_ops as f64 / cfg.untraced().as_secs_f64(),
            ),
        );
        let spans = span_slices(&logs);
        for (name, metric) in [
            ("push", "structures.push_p50_ns"),
            ("pop", "structures.pop_p50_ns"),
            ("enqueue", "structures.enqueue_p50_ns"),
            ("dequeue", "structures.dequeue_p50_ns"),
        ] {
            out.set(
                metric,
                SpanLog::durations(&spans, Some(name), None).quantile(0.5),
            );
        }
        let reclaim = SpanLog::durations(&spans, Some("try_reclaim"), None);
        out.set("epoch.try_reclaim_p50_us", reclaim.quantile(0.5) / 1e3);
        out.set("epoch.try_reclaim_p99_us", reclaim.quantile(0.99) / 1e3);
        out.note(format!(
            "traced phase: {traced_ops} ops in {traced_secs:.3} s, {} try_reclaim spans",
            reclaim.count()
        ));

        let (mut takes, mut empty, mut calls, mut limbo_peak) = (0, 0, 0, 0);
        for (c, (t0, e0, r0)) in s.clients.iter().zip(pre) {
            let c = c.lock().expect("client state poisoned");
            takes += c.takes - t0;
            empty += c.empty_takes - e0;
            calls += c.reclaim_calls - r0;
            limbo_peak = limbo_peak.max(c.limbo_peak);
        }
        out.set(
            "structures.empty_take_ratio",
            ratio(empty as f64, takes as f64),
        );
        let em_post = (
            s.stack.epoch_manager().stats(),
            s.queue.epoch_manager().stats(),
        );
        let delta = |f: fn(&ReclaimSnapshot) -> u64| {
            (f(&em_post.0) - f(&em_pre.0) + f(&em_post.1) - f(&em_pre.1)) as f64
        };
        out.set(
            "epoch.advance_ratio",
            ratio(delta(|s| s.advances), calls as f64),
        );
        out.set("epoch.limbo_peak", limbo_peak as f64);
        out.set(
            "epoch.reclaimed_ratio",
            ratio(
                delta(|s| s.objects_reclaimed),
                delta(|s| s.objects_deferred),
            ),
        );
        save_spans(cfg, "shm-churn.spans.jsonl", &all_spans(logs), &mut out);

        let model = ModelTrace::install(&s.rt);
        let clock = Clock::start(Duration::ZERO, cfg.traced(), cfg.window());
        let logs = phase(&s, &clock, Tracing::Model(&model), false);
        out.attempted += logs.iter().map(|l| l.ops).sum::<u64>();
        model.finish(&mut out);
        crate::ladder::run(&mut out);
    }
    teardown(s, &mut out);
    if !cfg.trace {
        out.set("peak_rss_mb", crate::stats::peak_rss_mb());
    }
    out
}
