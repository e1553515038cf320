//! `proc-rma`: two agent processes (`ProcEngine`, loopback TCP), one
//! client task each. Each client sends the other rank a symmetric-heap
//! mix — `fetch_add`, `dcas`, `read_wide`, `get` and `put` in equal shares
//! — plus one blocking `handlers::call` after every 16th op.
//!
//! The only path that crosses a real socket: wire, socket and handler
//! thread are all of its cost.
//!
//! ## Placement and protocol
//!
//! The orchestrator (this binary) re-executes itself once per rank with
//! [`ENV_AGENT`] set. Each agent pins itself to one allowed CPU (rank `r`
//! to the `r`-th), binds a loopback listener and prints `PORT <n>`; the
//! orchestrator answers with `PEERS <addr> <addr>`. Agents build their
//! engines, meet at a barrier on rank 0's symmetric heap, run warm-up ops
//! (connections pooled, caches warm), meet again and print `READY`: that
//! ends one set-up. Set-up runs [`SETUP_REPEATS`] times (`QUIT` retires a
//! gang); the last gang gets `GO`, measures, and prints one `RESULT` line.
//! A crashed, hung or garbled agent makes the orchestrator kill and reap
//! the whole gang and report a failed run; agents exit when their stdin
//! (held open by the orchestrator) closes.
//!
//! ## Checks
//!
//! Each rank is the only writer of its peer's cells, so every reply is
//! predictable: `fetch_add` and the handler return the running total the
//! client has added so far; every `dcas` succeeds against the client's
//! last value and `read_wide` returns it; every 64-byte `get` returns the
//! bytes of the client's last `put`. After the run each rank's counter
//! must equal the adds its peer aimed at it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pgas_bench::json::{self, Value};
use pgas_nb::sim::config::EngineKind;
use pgas_nb::sim::symheap::{self, SymOp64};
use pgas_nb::sim::telemetry::OpClass;
use pgas_nb::sim::{handlers, HandlerId, Runtime, RuntimeCore};
use pgas_net::ProcEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cpu::{allowed_cpus, pin_to};
use crate::metrics::{runtime_config, Outcome};
use crate::stats::{mix64, peak_rss_mb, ratio, Clock, Hist, SpanLog, Windows, SPAN_CAP};
use crate::{set_end_to_end, RunCfg};

/// Env var selecting the agent path (value: this process's rank).
pub const ENV_AGENT: &str = "PERFBENCH_AGENT_RANK";
const ENV_SEED: &str = "PERFBENCH_SEED";
const ENV_SECONDS: &str = "PERFBENCH_SECONDS";
const ENV_TRACE: &str = "PERFBENCH_TRACE";
const ENV_PLANT: &str = "PERFBENCH_PLANT";
const ENV_CPU: &str = "PERFBENCH_CPU";
const ENV_SERVE_CPU: &str = "PERFBENCH_SERVE_CPU";
const ENV_SPAN_DIR: &str = "PERFBENCH_SPAN_DIR";

const RANKS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Ops per agent input stream (cycled).
const STREAM_LEN: usize = 1 << 18;
const HANDLER_EVERY: usize = 16;
const WARM_OPS: usize = 2048;
/// How long the orchestrator waits for a gang's `READY` lines.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// Extra time past the measured seconds before a gang counts as hung.
const RESULT_GRACE: Duration = Duration::from_secs(60);

// Symmetric-heap layout, identical on every rank. Barrier words live on
// rank 0; the counter, wide cell and buffer on every rank.
const OFF_UP: u64 = 0;
const OFF_WARM: u64 = 8;
const OFF_WARM_ACK: u64 = 16;
const OFF_END: u64 = 24;
const OFF_END_ACK: u64 = 32;
const OFF_COUNTER: u64 = 64;
const OFF_WIDE: u64 = 96;
const OFF_BUF: u64 = 128;
const BUF_LEN: usize = 64;

const FETCH_ADD: u8 = 0;
const DCAS: u8 = 1;
const READ_WIDE: u8 = 2;
const GET: u8 = 3;
const PUT: u8 = 4;
const KINDS: usize = 5;
/// Span names, indexed by op kind, then the handler call.
const NAMES: [&str; KINDS + 1] = [
    "fetch_add",
    "dcas",
    "read_wide",
    "get",
    "put",
    "handler_call",
];
/// The per-layer p50 metric of each span name.
const P50_METRICS: [&str; KINDS + 1] = [
    "net.fetch_add_p50_us",
    "net.dcas_p50_us",
    "net.read_wide_p50_us",
    "net.get_p50_us",
    "net.put_p50_us",
    "net.handler_call_p50_us",
];

/// The registered handler: `args = [delta: u64 LE][offset: u64 LE]`,
/// fetch-adds `delta` into the local symmetric-heap word at `offset` and
/// replies with the previous value.
fn add_handler(core: &RuntimeCore, args: &[u8]) -> Vec<u8> {
    let word = |i: usize| u64::from_le_bytes(args[i..i + 8].try_into().expect("8-byte field"));
    let prev = core
        .locale(pgas_nb::sim::here())
        .sym
        .apply64(word(8), SymOp64::FetchAdd(word(0)));
    prev.to_le_bytes().to_vec()
}

/// The 64 bytes `rank`'s `seq`-th put writes.
fn pattern(rank: u64, seq: u64) -> [u8; BUF_LEN] {
    let mut b = [0u8; BUF_LEN];
    for (j, chunk) in b.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&mix64((rank << 56) ^ (seq << 8) ^ j as u64).to_le_bytes());
    }
    b
}

// --- agent ---------------------------------------------------------------

fn env<T: std::str::FromStr>(key: &str) -> Result<T, String> {
    std::env::var(key)
        .map_err(|_| format!("{key} not set"))?
        .parse()
        .map_err(|_| format!("{key} malformed"))
}

/// If this process was re-executed as an agent, run it and exit.
pub fn maybe_run_agent() {
    let Ok(rank) = std::env::var(ENV_AGENT) else {
        return;
    };
    let code = match rank.parse::<usize>() {
        Ok(r) if r < RANKS => match agent(r) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("proc-rma agent {r}: {e}");
                1
            }
        },
        _ => {
            eprintln!("proc-rma agent: bad {ENV_AGENT} {rank:?}");
            2
        }
    };
    std::process::exit(code);
}

/// One agent's client: inputs and the state its checks need.
struct AgentClient {
    rank: usize,
    peer: u16,
    add: HandlerId,
    kinds: Vec<u8>,
    deltas: Vec<u64>,
    pos: usize,
    /// Adds (fetch_add + handler) aimed at the peer so far.
    sent: u64,
    wide: u128,
    dcas_seq: u64,
    put_seq: Option<u64>,
    failed: u64,
    first_failure: Option<String>,
    plant: bool,
}

impl AgentClient {
    fn new(rank: usize, seed: u64, add: HandlerId, plant: bool) -> AgentClient {
        let mut rng = StdRng::seed_from_u64(seed ^ mix64(0x9c0c_0000 + rank as u64));
        let mut kinds = Vec::with_capacity(STREAM_LEN);
        while kinds.len() < STREAM_LEN {
            // Each block of five is a seeded permutation: equal shares.
            let mut block = [FETCH_ADD, DCAS, READ_WIDE, GET, PUT];
            for i in (1..KINDS).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
            kinds.extend_from_slice(&block);
        }
        let deltas = (0..STREAM_LEN).map(|_| rng.gen_range(1u64..256)).collect();
        AgentClient {
            rank,
            peer: ((rank + 1) % RANKS) as u16,
            add,
            kinds,
            deltas,
            pos: 0,
            sent: 0,
            wide: 0,
            dcas_seq: 0,
            put_seq: None,
            failed: 0,
            first_failure: None,
            plant,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// Issue op kind `kind` (or the handler call, `KINDS`) and check its
    /// reply. `measured` arms the planted failure.
    fn op(&mut self, kind: usize, delta: u64, measured: bool) {
        let peer = self.peer;
        match kind {
            k if k == FETCH_ADD as usize => {
                let prev = symheap::fetch_add(peer, OFF_COUNTER, delta);
                if prev != self.sent {
                    self.fail(format!("fetch_add returned {prev}, expected {}", self.sent));
                }
                self.sent += delta;
            }
            k if k == DCAS as usize => {
                self.dcas_seq += 1;
                let new = ((self.rank as u128 + 1) << 64) | self.dcas_seq as u128;
                let (ok, cur) = symheap::dcas(peer, OFF_WIDE, self.wide, new);
                if !ok || cur != self.wide {
                    self.fail(format!("dcas failed: ok={ok}, saw {cur:#x}"));
                } else {
                    self.wide = new;
                }
            }
            k if k == READ_WIDE as usize => {
                let cur = symheap::read_wide(peer, OFF_WIDE);
                if cur != self.wide {
                    self.fail(format!("read_wide saw {cur:#x}, expected {:#x}", self.wide));
                }
            }
            k if k == GET as usize => {
                let mut buf = [0u8; BUF_LEN];
                symheap::get(peer, OFF_BUF, &mut buf);
                if self.plant && measured && self.rank == 0 {
                    // Planted bad result: one corrupted byte.
                    buf[0] ^= 0xff;
                    self.plant = false;
                }
                let want = self.put_seq.map(|s| pattern(self.rank as u64, s));
                if want != Some(buf) {
                    self.fail("get returned bytes no put wrote".to_string());
                }
            }
            k if k == PUT as usize => {
                let seq = self.put_seq.map_or(0, |s| s + 1);
                symheap::put(peer, OFF_BUF, &pattern(self.rank as u64, seq));
                self.put_seq = Some(seq);
            }
            _ => {
                let mut args = [0u8; 16];
                args[..8].copy_from_slice(&delta.to_le_bytes());
                args[8..].copy_from_slice(&OFF_COUNTER.to_le_bytes());
                let reply = handlers::call(peer, self.add, &args);
                let prev = reply
                    .get(..8)
                    .and_then(|b| b.try_into().ok())
                    .map(u64::from_le_bytes);
                if prev != Some(self.sent) {
                    self.fail(format!("handler returned {prev:?}, expected {}", self.sent));
                }
                self.sent += delta;
            }
        }
    }

    /// Closed loop until `clock.end` (or a full span log); returns the
    /// measured ops and all ops issued (warm-up included).
    fn phase(
        &mut self,
        clock: &Clock,
        windows: &mut Windows,
        mut spans: Option<&mut SpanLog>,
    ) -> (u64, u64) {
        let (mut ops, mut issued) = (0u64, 0u64);
        let mut prev = Instant::now();
        while prev < clock.end && !spans.as_ref().is_some_and(|s| s.full()) {
            let i = self.pos % STREAM_LEN;
            self.pos += 1;
            let calls = if i % HANDLER_EVERY == HANDLER_EVERY - 1 {
                [Some(self.kinds[i] as usize), Some(KINDS)]
            } else {
                [Some(self.kinds[i] as usize), None]
            };
            for kind in calls.into_iter().flatten() {
                let measuring = prev >= clock.measure_start;
                self.op(kind, self.deltas[i], measuring);
                issued += 1;
                let end = Instant::now();
                if windows.record(clock, end, (end - prev).as_nanos() as u64) {
                    ops += 1;
                }
                if let Some(s) = spans.as_deref_mut() {
                    s.record(NAMES[kind], self.peer, prev, end);
                }
                prev = end;
            }
        }
        (ops, issued)
    }

    fn warm_up(&mut self) {
        self.op(PUT as usize, 0, false);
        for _ in 0..WARM_OPS {
            let i = self.pos % STREAM_LEN;
            self.pos += 1;
            self.op(self.kinds[i] as usize, self.deltas[i], false);
            if i % HANDLER_EVERY == HANDLER_EVERY - 1 {
                self.op(KINDS, self.deltas[i], false);
            }
        }
    }
}

/// Every rank checks in on rank 0's word `off`, then waits for all.
fn barrier(off: u64) {
    symheap::fetch_add(0, off, 1);
    while symheap::load(0, off) < RANKS as u64 {
        std::thread::yield_now();
    }
}

/// After a barrier: rank 0 waits until every other rank has stopped
/// polling it, so no rank exits under a peer's request.
fn release(rank: usize, off: u64) {
    if rank == 0 {
        while symheap::load(0, off) < (RANKS - 1) as u64 {
            std::thread::yield_now();
        }
    } else {
        symheap::fetch_add(0, off, 1);
    }
}

fn agent(rank: usize) -> Result<(), String> {
    // The engine's server threads inherit the placement of the thread
    // that starts them.
    if let Ok(cpu) = env::<usize>(ENV_SERVE_CPU) {
        pin_to(cpu)?;
    }
    let seed: u64 = env(ENV_SEED)?;
    let seconds: f64 = env(ENV_SECONDS)?;
    let trace = env::<u8>(ENV_TRACE)? == 1;
    let plant = env::<u8>(ENV_PLANT)? == 1;
    let span_dir = PathBuf::from(std::env::var(ENV_SPAN_DIR).map_err(|_| "span dir not set")?);
    let cfg = RunCfg {
        seed,
        seconds,
        trace,
        plant,
        span_dir,
    };

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let port = listener.local_addr().map_err(|e| e.to_string())?.port();
    say(&format!("PORT {port}"))?;
    let mut stdin = BufReader::new(std::io::stdin());
    let line = read_line(&mut stdin)?;
    let peers: Vec<SocketAddr> = line
        .strip_prefix("PEERS ")
        .ok_or(format!("expected PEERS, got {line:?}"))?
        .split_whitespace()
        .map(|a| a.parse().map_err(|e| format!("peer {a:?}: {e}")))
        .collect::<Result<_, _>>()?;
    if peers.len() != RANKS {
        return Err(format!("{} peers, expected {RANKS}", peers.len()));
    }

    let add = handlers::register("perfbench.add", add_handler);
    let mut client = AgentClient::new(rank, cfg.seed, add, cfg.plant);
    let rt = Runtime::with_engine(
        runtime_config(RANKS, false, false, EngineKind::Proc),
        Box::new(ProcEngine::new(rank as u16, listener, peers)),
    );
    if let Ok(cpu) = env::<usize>(ENV_CPU) {
        pin_to(cpu)?;
    }
    rt.run(|| {
        barrier(OFF_UP);
        client.warm_up();
        barrier(OFF_WARM);
        release(rank, OFF_WARM_ACK);
    });
    say("READY")?;
    match read_line(&mut stdin)?.as_str() {
        "GO" => {}
        "QUIT" => return Ok(()),
        other => return Err(format!("expected GO or QUIT, got {other:?}")),
    }
    // Lifeline: the orchestrator holds stdin open; EOF means it is gone.
    std::thread::spawn(move || {
        let mut sink = [0u8; 64];
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(3);
    });

    let mut result = String::new();
    rt.run(|| {
        let clock = Clock::start(cfg.warm(), cfg.untraced(), cfg.window());
        let mut windows = Windows::new(&clock);
        let comm0 = rt.total_telemetry();
        let (ops, issued) = client.phase(&clock, &mut windows, None);
        let tel = rt.total_telemetry();
        let comm = tel.comm - comm0.comm;
        let svc = (
            tel.class(OpClass::AmService).sum() - comm0.class(OpClass::AmService).sum(),
            tel.class(OpClass::AmService).count() - comm0.class(OpClass::AmService).count(),
        );
        let mut traced = String::from("null");
        if cfg.trace {
            let clock = Clock::start(Duration::ZERO, cfg.traced(), cfg.window());
            let mut w = Windows::new(&clock);
            let mut spans = SpanLog::new(clock.measure_start, rank as u64 + 1, SPAN_CAP);
            let t0 = Instant::now();
            let (traced_ops, _) = client.phase(&clock, &mut w, Some(&mut spans));
            let traced_secs = t0.elapsed().as_secs_f64();
            let logs = [spans.spans.as_slice()];
            let hists: Vec<String> = NAMES
                .iter()
                .map(|n| format!("\"{}\"", SpanLog::durations(&logs, Some(n), None).encode()))
                .collect();
            let path = cfg.span_dir.join(format!("proc-rma.rank{rank}.spans.jsonl"));
            if let Err(e) = crate::stats::write_spans(&path, &spans.spans) {
                eprintln!("proc-rma agent {rank}: could not write {}: {e}", path.display());
            }
            traced = format!(
                "{{\"ops\": {traced_ops}, \"secs\": {traced_secs}, \"hists\": [{}], \
                 \"spans\": {}}}",
                hists.join(", "),
                spans.spans.len()
            );
        }
        barrier(OFF_END);
        let counter = symheap::load(rank as u16, OFF_COUNTER);
        release(rank, OFF_END_ACK);
        let encoded: Vec<String> = windows.hists.iter().map(|h| format!("\"{}\"", h.encode())).collect();
        result = format!(
            "{{\"rank\": {rank}, \"ops\": {ops}, \"issued\": {issued}, \"failed\": {}, \"first_failure\": {}, \
             \"sent\": {}, \"counter\": {counter}, \"rss_mb\": {}, \"window_secs\": {}, \
             \"windows\": [{}], \"cpu_atomics\": {}, \"cpu_dcas\": {}, \"am_sent\": {}, \
             \"bytes\": {}, \"svc_sum\": {}, \"svc_count\": {}, \"traced\": {traced}}}",
            client.failed,
            client
                .first_failure
                .as_deref()
                .map_or("null".to_string(), pgas_bench::json::jstr),
            client.sent,
            peak_rss_mb(),
            clock.window_secs(),
            encoded.join(", "),
            comm.cpu_atomics,
            comm.cpu_dcas,
            comm.am_sent,
            comm.bytes_got + comm.bytes_put,
            svc.0,
            svc.1,
        );
    });
    say(&format!("RESULT {result}"))?;
    drop(rt);
    Ok(())
}

fn say(line: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}")
        .and_then(|_| out.flush())
        .map_err(|e| format!("stdout: {e}"))
}

fn read_line(r: &mut impl BufRead) -> Result<String, String> {
    let mut line = String::new();
    match r.read_line(&mut line) {
        Ok(0) => Err("orchestrator closed stdin".to_string()),
        Ok(_) => Ok(line.trim().to_string()),
        Err(e) => Err(format!("stdin: {e}")),
    }
}

// --- orchestrator ----------------------------------------------------------

/// A gang of agents that is killed and reaped on drop unless it finished.
struct Gang {
    children: Vec<Child>,
    stdins: Vec<ChildStdin>,
    lines: mpsc::Receiver<(usize, Option<String>)>,
}

impl Gang {
    fn spawn(cfg: &RunCfg, cpus: &[usize]) -> Result<Gang, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let (tx, lines) = mpsc::channel();
        let mut gang = Gang {
            children: Vec::new(),
            stdins: Vec::new(),
            lines,
        };
        for rank in 0..RANKS {
            let mut cmd = Command::new(&exe);
            cmd.env(ENV_AGENT, rank.to_string())
                .env(ENV_SEED, cfg.seed.to_string())
                .env(ENV_SECONDS, cfg.seconds.to_string())
                .env(ENV_TRACE, u8::from(cfg.trace).to_string())
                .env(ENV_PLANT, u8::from(cfg.plant).to_string())
                .env(ENV_SPAN_DIR, &cfg.span_dir)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if cpus.len() >= RANKS {
                cmd.env(ENV_CPU, cpus[rank].to_string())
                    .env(ENV_SERVE_CPU, cpus[(rank + 1) % RANKS].to_string());
            }
            let mut child = cmd
                .spawn()
                .map_err(|e| format!("spawning agent {rank}: {e}"))?;
            let stdout = child.stdout.take().expect("agent stdout is piped");
            gang.stdins
                .push(child.stdin.take().expect("agent stdin is piped"));
            gang.children.push(child);
            let tx = tx.clone();
            std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(l) = line else { break };
                    if tx.send((rank, Some(l))).is_err() {
                        break;
                    }
                }
                let _ = tx.send((rank, None));
            });
        }
        Ok(gang)
    }

    /// Wait for one line starting with `prefix` from every agent; returns
    /// the rest of each line, by rank.
    fn collect(&mut self, prefix: &str, timeout: Duration) -> Result<Vec<String>, String> {
        let deadline = Instant::now() + timeout;
        let mut got: Vec<Option<String>> = vec![None; RANKS];
        while got.iter().any(Option::is_none) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!("timed out waiting for {prefix:?} lines"));
            }
            match self.lines.recv_timeout(left) {
                Ok((rank, Some(l))) => {
                    if let Some(rest) = l.strip_prefix(prefix) {
                        got[rank] = Some(rest.trim().to_string());
                    }
                }
                Ok((rank, None)) => {
                    if got[rank].is_none() {
                        return Err(format!("agent {rank} exited before its {prefix:?} line"));
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("every agent stream closed".to_string());
                }
            }
        }
        Ok(got
            .into_iter()
            .map(|l| l.expect("loop ends when all are set"))
            .collect())
    }

    fn tell(&mut self, line: &str) -> Result<(), String> {
        for (rank, s) in self.stdins.iter_mut().enumerate() {
            writeln!(s, "{line}")
                .and_then(|_| s.flush())
                .map_err(|e| format!("writing to agent {rank}: {e}"))?;
        }
        Ok(())
    }

    /// Spawn through `READY`: one set-up.
    fn start(cfg: &RunCfg, cpus: &[usize]) -> Result<Gang, String> {
        let mut gang = Gang::spawn(cfg, cpus)?;
        let ports = gang.collect("PORT ", READY_TIMEOUT)?;
        let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        gang.tell(&format!("PEERS {}", peers.join(" ")))?;
        gang.collect("READY", READY_TIMEOUT)?;
        Ok(gang)
    }

    /// Wait until every agent has exited cleanly.
    fn reap(mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        for rank in 0..RANKS {
            loop {
                match self.children[rank].try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => return Err(format!("agent {rank} exited with {status}")),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    Ok(None) => return Err(format!("agent {rank} did not exit")),
                    Err(e) => return Err(format!("waiting on agent {rank}: {e}")),
                }
            }
        }
        self.children.clear();
        Ok(())
    }
}

impl Drop for Gang {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
        }
        for c in &mut self.children {
            let _ = c.wait();
        }
    }
}

/// Number `key` of a parsed `RESULT` object.
fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_num)
        .ok_or(format!("RESULT lacks number {key:?}"))
}

/// Histogram array `key` of a parsed `RESULT` object.
fn hists(v: &Value, key: &str) -> Result<Vec<Hist>, String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("RESULT lacks histogram array {key:?}"))?
        .iter()
        .map(|h| Hist::decode(h.as_str().ok_or("histogram is not a string")?))
        .collect()
}

fn run_gangs(cfg: &RunCfg, out: &mut Outcome) -> Result<(Vec<Value>, Vec<f64>), String> {
    let cpus = allowed_cpus();
    let repeats = if cfg.trace { 1 } else { SETUP_REPEATS };
    let mut setup_secs = Vec::new();
    for rep in 0..repeats {
        let t0 = Instant::now();
        let mut gang = Gang::start(cfg, &cpus)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        if rep + 1 < repeats {
            gang.tell("QUIT")?;
            gang.reap(READY_TIMEOUT)?;
            continue;
        }
        gang.tell("GO")?;
        let wait = Duration::from_secs_f64(cfg.seconds + cfg.warm().as_secs_f64()) + RESULT_GRACE;
        let lines = gang.collect("RESULT ", wait)?;
        gang.reap(RESULT_GRACE)?;
        let results = lines
            .iter()
            .map(|l| json::parse(l))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("bad RESULT line: {e}"))?;
        out.note(format!(
            "agents pinned to cpus {:?}",
            if cpus.len() >= RANKS {
                &cpus[..RANKS]
            } else {
                &[]
            }
        ));
        return Ok((results, setup_secs));
    }
    unreachable!("the last repetition returns")
}

/// Run `proc-rma` as `cfg` says.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = summarize(cfg, &mut out) {
        out.fail(format!("proc-rma gang failed: {e}"));
    }
    if cfg.trace {
        crate::ladder::run(&mut out);
    }
    out
}

fn summarize(cfg: &RunCfg, out: &mut Outcome) -> Result<(), String> {
    let (results, setup_secs) = run_gangs(cfg, out)?;
    let mut windows = Vec::new();
    let mut window_secs = 0.0;
    let (mut ops, mut issued, mut rss) = (0.0, 0.0, 0.0f64);
    let sum = |key: &str| -> Result<f64, String> { results.iter().map(|r| num(r, key)).sum() };
    for (rank, r) in results.iter().enumerate() {
        windows.push(Windows {
            hists: hists(r, "windows")?,
        });
        window_secs = num(r, "window_secs")?;
        ops += num(r, "ops")?;
        issued += num(r, "issued")?;
        rss = rss.max(num(r, "rss_mb")?);
        let failed = num(r, "failed")? as u64;
        if failed > 0 {
            let first = r
                .get("first_failure")
                .and_then(Value::as_str)
                .unwrap_or("?");
            for _ in 0..failed {
                out.fail(format!("rank {rank}: {first}"));
            }
        }
        let peer = &results[(rank + 1) % RANKS];
        let (counter, sent) = (num(r, "counter")?, num(peer, "sent")?);
        if counter != sent {
            out.fail(format!(
                "rank {rank} counter is {counter}, its peer added {sent}"
            ));
        }
    }
    out.attempted = ops as u64;
    let windows = Windows::merged(windows.iter());
    if !cfg.trace {
        set_end_to_end(out, &windows.summary(window_secs), &setup_secs);
        out.set("peak_rss_mb", rss);
        return Ok(());
    }

    // Counters cover the whole untraced phase, warm-up included.
    let per_op = |key: &str| -> Result<f64, String> { Ok(ratio(sum(key)?, issued)) };
    out.set("atomics.cpu_atomics_per_op", per_op("cpu_atomics")?);
    out.set("atomics.cpu_dcas_per_op", per_op("cpu_dcas")?);
    out.set("net.ams_per_op", per_op("am_sent")?);
    out.set("net.bytes_per_op", per_op("bytes")?);
    out.set(
        "net.handler_service_mean_ns",
        ratio(sum("svc_sum")?, sum("svc_count")?),
    );
    let mut kind_hists = vec![Hist::default(); NAMES.len()];
    let (mut traced_rate, mut traced_ops, mut spans) = (0.0, 0.0, 0.0);
    for r in &results {
        let t = r.get("traced").ok_or("RESULT lacks the traced phase")?;
        traced_ops += num(t, "ops")?;
        traced_rate += num(t, "ops")? / num(t, "secs")?;
        spans += num(t, "spans")?;
        for (all, h) in kind_hists.iter_mut().zip(hists(t, "hists")?) {
            all.merge(&h);
        }
    }
    out.attempted += traced_ops as u64;
    for (metric, h) in P50_METRICS.iter().zip(&kind_hists) {
        out.set(metric, h.quantile(0.5) / 1e3);
    }
    out.set(
        "trace_overhead_ratio",
        ratio(traced_rate, ops / cfg.untraced().as_secs_f64()),
    );
    out.note(format!(
        "traced phase: {traced_ops} ops, {spans} spans written to {}",
        cfg.span_dir.join("proc-rma.rank*.spans.jsonl").display()
    ));
    Ok(())
}
