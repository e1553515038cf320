//! The server's execution model on real loopback TCP: every request is
//! served on the reader thread of the connection it arrived on, so
//! requests on different connections run concurrently, a panicking
//! handler must not take its reader down, and a connection — sync or
//! async — goes back to its pool after the reply instead of leaking.
//!
//! Each test builds an in-process 2-rank pair (two runtimes, two
//! `ProcEngine`s) and drives rank 1 from rank 0. The tests share a lock:
//! the fd test counts this process's descriptors, which any concurrently
//! running pair would disturb.

use std::net::{SocketAddr, TcpListener};
use std::sync::{Barrier, Mutex, MutexGuard};

use pgas_net::ProcEngine;
use pgas_sim::symheap::{self, SymOp64};
use pgas_sim::telemetry::OpClass;
use pgas_sim::{handlers, EngineKind, Runtime, RuntimeConfig, RuntimeCore};

const OFF_COUNTER: u64 = 0;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Two runtimes whose `ProcEngine`s reach each other over loopback.
fn pair() -> Vec<Runtime> {
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let peers: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    listeners
        .into_iter()
        .enumerate()
        .map(|(r, listener)| {
            Runtime::with_engine(
                RuntimeConfig::cluster(2).with_engine(EngineKind::Proc),
                Box::new(ProcEngine::new(r as u16, listener, peers.clone())),
            )
        })
        .collect()
}

/// `args = [delta: u64 LE]`: fetch-add into the owner's counter word.
fn add(core: &RuntimeCore, args: &[u8]) -> Vec<u8> {
    let delta = u64::from_le_bytes(args[0..8].try_into().unwrap());
    core.locale(pgas_sim::here())
        .sym
        .apply64(OFF_COUNTER, SymOp64::FetchAdd(delta))
        .to_le_bytes()
        .to_vec()
}

fn echo(_core: &RuntimeCore, args: &[u8]) -> Vec<u8> {
    args.to_vec()
}

fn boom(_core: &RuntimeCore, args: &[u8]) -> Vec<u8> {
    panic!("boom {}", args[0]);
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default(),
    }
}

#[test]
fn panicking_handler_repanics_on_requester_and_its_reader_keeps_serving() {
    let _serial = serial();
    let boom_id = handlers::register("net.test.boom", boom);
    let echo_id = handlers::register("net.test.echo", echo);
    let rts = pair();
    rts[0].run(|| {
        for round in 0..3u8 {
            let sync = std::panic::catch_unwind(|| handlers::call(1, boom_id, &[round]));
            let msg = panic_text(sync.expect_err("remote panic must re-panic here"));
            assert!(
                msg.contains(&format!("boom {round}")),
                "requester sees the handler's message, got {msg:?}"
            );
            let pending = handlers::call_async(1, boom_id, vec![round + 100]);
            let msg = panic_text(
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pending.wait()))
                    .expect_err("async remote panic must re-panic on wait"),
            );
            assert!(msg.contains(&format!("boom {}", round + 100)), "{msg:?}");
            // Same pooled connection, same reader: it survived the panic.
            assert_eq!(handlers::call(1, echo_id, &[round, 7]), vec![round, 7]);
        }
    });
    let served = rts[1].total_comm().am_handled;
    assert_eq!(served, 9, "every request, panicking or not, was handled");
}

#[test]
fn concurrent_requesters_are_served_exactly() {
    const PER_THREAD: u64 = 400;
    const THREADS: u64 = 2;
    let _serial = serial();
    let add_id = handlers::register("net.test.add", add);
    let rts = pair();
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (rt, start) = (&rts[0], &start);
            s.spawn(move || {
                rt.run(|| {
                    start.wait();
                    for i in 0..PER_THREAD {
                        // Deltas differ per thread, so a lost or doubled
                        // op shows up in the sum.
                        let delta = 1 + t;
                        if i % 2 == 0 {
                            symheap::fetch_add(1, OFF_COUNTER, delta);
                        } else {
                            handlers::call(1, add_id, &delta.to_le_bytes());
                        }
                    }
                })
            });
        }
    });
    let expected: u64 = (0..THREADS).map(|t| PER_THREAD * (1 + t)).sum();
    let counter = rts[1]
        .locale(1)
        .sym
        .word(OFF_COUNTER)
        .load(std::sync::atomic::Ordering::SeqCst);
    assert_eq!(counter, expected, "every add landed exactly once");
    let requests = THREADS * PER_THREAD;
    let owner = rts[1].total_telemetry();
    assert_eq!(owner.comm.am_handled, requests, "owner am_handled");
    assert_eq!(
        owner.class(OpClass::AmService).count(),
        requests,
        "one AmService sample per two-sided request"
    );
    assert_eq!(rts[0].total_comm().am_sent, requests, "requester am_sent");
}

#[cfg(target_os = "linux")]
#[test]
fn async_calls_reuse_pooled_connections() {
    const CALLS: usize = 500;
    let _serial = serial();
    let echo_id = handlers::register("net.test.echo", echo);
    let open_fds = || std::fs::read_dir("/proc/self/fd").unwrap().count();
    let rts = pair();
    rts[0].run(|| {
        // Warm up: the first call connects and starts rank 1's reader.
        handlers::call_async(1, echo_id, vec![1]).wait();
        let before = open_fds();
        for i in 0..CALLS {
            handlers::call_async(1, echo_id, vec![i as u8]).wait();
        }
        let after = open_fds();
        assert!(
            after <= before + 8,
            "{CALLS} sequential async calls grew the fd table from {before} to {after}"
        );
    });
}
