//! `map-zipf`: a 2-locale simulated cluster (network atomics off,
//! combining on) holding a `ShardedHashMap` preloaded with 2^20 keys. Two
//! client tasks on locale 0 draw Zipf(0.99) keys: 90% `get`, 10%
//! alternating `insert`/`remove`. Locale 1 owns half the shards and
//! serves them through its progress thread, so about a third of the ops
//! become active messages and the two clients give the combiner batches.
//! Each client calls the map's EBR `try_reclaim` every 8192 of its ops.
//!
//! Checks: every `get` returns a value the benchmark inserted for that key
//! (values encode their key and writer); teardown leaves no live objects.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pgas_bench::zipf::ZipfSampler;
use pgas_nb::sim::config::EngineKind;
use pgas_nb::sim::telemetry::key_hash64;
use pgas_nb::sim::{vtime, Runtime};
use pgas_nb::structures::{ShardSnapshot, ShardedHashMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{runtime_config, Outcome};
use crate::modeled::ModelTrace;
use crate::stats::{all_spans, mix64, ratio, span_slices, Clock, PhaseLog, SpanLog, Windows};
use crate::{run_clients, save_spans, set_end_to_end, RunCfg, Tracing};

const CLIENTS: usize = 2;
/// Set-ups per untraced run (each preloads a million keys); `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const LOCALES: usize = 2;
const KEYS: u64 = 1 << 20;
const THETA: f64 = 0.99;
const READ_PCT: u32 = 90;
/// Ops per client input stream (cycled if a run outpaces it).
const STREAM_LEN: usize = 1 << 20;
const PRELOAD_CHUNK: u64 = 1 << 16;
/// Each client calls `try_reclaim` after this many of its ops, outside
/// the timed op, so removed and replaced nodes do not pile up in limbo.
const RECLAIM_EVERY: u64 = 8192;
/// Teardown reclaims as it empties the map, bounding the limbo lists.
const TEARDOWN_RECLAIM_EVERY: u64 = 1 << 14;

const GET: u32 = 0;
const INSERT: u32 = 1;
const REMOVE: u32 = 2;
const KEY_MASK: u32 = (1 << 20) - 1;

/// Writer id of preloaded values (clients are 0 and 1).
const PRELOAD_WRITER: u64 = 2;

/// `key` in the top bits, then the writer, then the writer's sequence.
fn value(key: u64, writer: u64, seq: u64) -> u64 {
    (key << 24) | (writer << 20) | (seq & 0xf_ffff)
}

/// A value the benchmark could have inserted for `key`.
fn plausible(key: u64, v: u64) -> bool {
    v >> 24 == key && (v >> 20) & 0xf <= PRELOAD_WRITER
}

struct Client {
    stream: Vec<u32>,
    pos: usize,
    seq: u64,
    gets: u64,
    hits: u64,
    /// Gets that returned a value never inserted for their key.
    bad_gets: u64,
    planted: bool,
}

struct Setup {
    map: ShardedHashMap<u64, u64>,
    clients: Vec<Mutex<Client>>,
    rt: Runtime,
}

fn setup(seed: u64) -> Setup {
    let zipf = ZipfSampler::new(KEYS, THETA);
    let clients = (0..CLIENTS)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(seed ^ mix64(0x2197_0000 + c as u64));
            let mut insert_next = true;
            let stream = (0..STREAM_LEN)
                .map(|_| {
                    let key = zipf.sample(&mut rng) as u32;
                    let kind = if rng.gen_range(0u32..100) < READ_PCT {
                        GET
                    } else {
                        insert_next = !insert_next;
                        if insert_next {
                            REMOVE
                        } else {
                            INSERT
                        }
                    };
                    key | (kind << 20)
                })
                .collect();
            Mutex::new(Client {
                stream,
                pos: 0,
                seq: 0,
                gets: 0,
                hits: 0,
                bad_gets: 0,
                planted: false,
            })
        })
        .collect();
    drop(zipf);
    let rt = Runtime::new(runtime_config(LOCALES, false, true, EngineKind::Sim));
    let buckets_per_shard = ((KEYS / 8) as usize).next_power_of_two() / LOCALES;
    let map = rt.run(|| {
        let m = ShardedHashMap::new(buckets_per_shard);
        let mut next = 0;
        while next < KEYS {
            let hi = (next + PRELOAD_CHUNK).min(KEYS);
            m.insert_bulk(
                (next..hi)
                    .map(|k| (k, value(k, PRELOAD_WRITER, 0)))
                    .collect(),
            );
            next = hi;
        }
        m
    });
    Setup { map, clients, rt }
}

fn phase(s: &Setup, clock: &Clock, tracing: Tracing, plant: bool) -> Vec<PhaseLog> {
    let stop = AtomicBool::new(false);
    run_clients(&s.rt, CLIENTS, |t| {
        let mut c = s.clients[t].lock().expect("client state poisoned");
        let c = &mut *c;
        let tok = s.map.register();
        let mut log = PhaseLog::new(clock, t, tracing.span_cap());
        let mut vt0 = None;
        let mut prev = Instant::now();
        let mut i = 0u64;
        while prev < clock.end && !stop.load(Ordering::Relaxed) {
            if vt0.is_none() && prev >= clock.measure_start {
                vt0 = Some(vtime::now());
            }
            let op = c.stream[c.pos % STREAM_LEN];
            c.pos += 1;
            i += 1;
            log.issued += 1;
            let key = (op & KEY_MASK) as u64;
            let (name, got) = match op >> 20 {
                GET => ("get", Some(s.map.get(&tok, &key))),
                INSERT => {
                    s.map.insert(&tok, key, value(key, t as u64, c.seq));
                    c.seq += 1;
                    ("insert", None)
                }
                _ => {
                    s.map.remove(&tok, &key);
                    ("remove", None)
                }
            };
            let end = Instant::now();
            let measured = log
                .windows
                .record(clock, end, (end - prev).as_nanos() as u64);
            log.ops += u64::from(measured);
            if let Some(mut got) = got {
                c.gets += 1;
                if plant && measured && t == 0 && !c.planted {
                    // Planted bad result: a value never inserted for
                    // this key.
                    got = Some(value(key + 1, 0, 0));
                    c.planted = true;
                }
                if let Some(v) = got {
                    c.hits += 1;
                    if !plausible(key, v) {
                        c.bad_gets += 1;
                    }
                }
            }
            if let Some(spans) = &mut log.spans {
                let owner = s.map.router().owner(key_hash64(&key));
                spans.record(name, owner, prev, end);
            }
            if i.is_multiple_of(256) && tracing.must_stop(&log) {
                stop.store(true, Ordering::Relaxed);
            }
            prev = end;
            if i.is_multiple_of(RECLAIM_EVERY) {
                s.map.try_reclaim();
                prev = Instant::now();
            }
        }
        log.vt_ns = vt0.map_or(0, |v0| vtime::now() - v0);
        log
    })
}

/// Empty the map on each key's owner first (local removes, local frees on
/// the reclaim), so only the bucket sentinels are freed across locales.
fn teardown(s: Setup, out: &mut Outcome) {
    let Setup { map, clients, rt } = s;
    rt.run(|| {
        rt.coforall_locales(|l| {
            let tok = map.register();
            for k in 0..KEYS {
                if map.router().owner(key_hash64(&k)) == l {
                    map.remove(&tok, &k);
                }
                if k.is_multiple_of(TEARDOWN_RECLAIM_EVERY) {
                    map.try_reclaim();
                }
            }
        });
        map.clear_reclaim();
        drop(map);
    });
    drop(clients);
    let live = rt.live_objects();
    if live != 0 {
        out.fail(format!("teardown left {live} live objects"));
    }
}

fn check_gets(s: &Setup, out: &mut Outcome) {
    for c in &s.clients {
        for _ in 0..c.lock().expect("client state poisoned").bad_gets {
            out.fail("get returned a value never inserted for its key".to_string());
        }
    }
}

fn hit_counts(s: &Setup) -> (u64, u64) {
    s.clients.iter().fold((0, 0), |(g, h), c| {
        let c = c.lock().expect("client state poisoned");
        (g + c.gets, h + c.hits)
    })
}

fn shard_delta(a: ShardSnapshot, b: ShardSnapshot) -> (u64, u64) {
    (b.local_ops - a.local_ops, b.remote_ops - a.remote_ops)
}

/// Run `map-zipf` as `cfg` says.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let repeats = if cfg.trace { 1 } else { SETUP_REPEATS };
    let mut setup_secs = Vec::new();
    let mut s: Option<Setup> = None;
    for _ in 0..repeats {
        if let Some(old) = s.take() {
            teardown(old, &mut out);
        }
        let t0 = Instant::now();
        s = Some(setup(cfg.seed));
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    s.rt.reset_metrics();

    let shard0 = s.map.shard_snapshot();
    let (gets0, hits0) = hit_counts(&s);
    let clock = Clock::start(cfg.warm(), cfg.untraced(), cfg.window());
    let logs = phase(&s, &clock, Tracing::Off, cfg.plant);
    let windows = Windows::merged(logs.iter().map(|l| &l.windows));
    let untraced_ops: u64 = logs.iter().map(|l| l.ops).sum();
    out.attempted = untraced_ops;

    if !cfg.trace {
        set_end_to_end(&mut out, &windows.summary(clock.window_secs()), &setup_secs);
    } else {
        // Counter ratios come from the untraced phase (warm-up included
        // in both numerator and denominator).
        let counters = s.rt.total_comm();
        let (local, remote) = shard_delta(shard0, s.map.shard_snapshot());
        let all_ops = (local + remote) as f64;
        let per_op = |v: u64| ratio(v as f64, all_ops);
        out.set("atomics.cpu_atomics_per_op", per_op(counters.cpu_atomics));
        out.set("atomics.cpu_dcas_per_op", per_op(counters.cpu_dcas));
        out.set("sim.ams_per_op", per_op(counters.am_sent));
        out.set(
            "sim.combined_per_batch",
            ratio(counters.combined_ops as f64, counters.combines as f64),
        );
        out.set("structures.shard_local_ratio", ratio(local as f64, all_ops));
        let (gets, hits) = hit_counts(&s);
        out.set(
            "structures.get_hit_ratio",
            ratio((hits - hits0) as f64, (gets - gets0) as f64),
        );
        let makespan = logs.iter().map(|l| l.vt_ns).max().unwrap_or(0);
        out.set(
            "sim.model_ns_per_op",
            ratio(makespan as f64, untraced_ops as f64),
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
        let remote = SpanLog::durations(&spans, None, Some(1));
        let local = SpanLog::durations(&spans, None, Some(0));
        out.set("sim.remote_op_p50_us", remote.quantile(0.5) / 1e3);
        out.set("structures.local_op_p50_us", local.quantile(0.5) / 1e3);
        out.note(format!(
            "traced phase: {traced_ops} ops in {traced_secs:.3} s ({} local, {} remote spans)",
            local.count(),
            remote.count()
        ));
        save_spans(cfg, "map-zipf.spans.jsonl", &all_spans(logs), &mut out);

        let model = ModelTrace::install(&s.rt);
        let clock = Clock::start(Duration::ZERO, cfg.traced(), cfg.window());
        let logs = phase(&s, &clock, Tracing::Model(&model), false);
        out.attempted += logs.iter().map(|l| l.ops).sum::<u64>();
        model.finish(&mut out);
        crate::ladder::run(&mut out);
    }
    check_gets(&s, &mut out);
    teardown(s, &mut out);
    if !cfg.trace {
        out.set("peak_rss_mb", crate::stats::peak_rss_mb());
    }
    out
}
