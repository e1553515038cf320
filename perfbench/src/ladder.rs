//! The per-layer ladder: single-threaded microloops, one per layer
//! boundary, run at the end of every traced run. Each rung reports the
//! median over batches of the mean ns (or µs) per iteration.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use pgas_nb::atomics::{AtomicAbaObject, AtomicObject};
use pgas_nb::epoch::EpochManager;
use pgas_nb::sim::config::EngineKind;
use pgas_nb::sim::{alloc_local, current_runtime, free, GlobalPtr, Runtime};
use pgas_net::wire::{self, Msg};

use crate::cpu::pin_client;
use crate::metrics::{runtime_config, Outcome};
use crate::stats::median;

const BATCHES: usize = 7;

/// Median over [`BATCHES`] batches of `iters` calls of the mean ns per
/// call. `body` runs one batch and returns its elapsed ns.
fn rung(iters: u64, mut body: impl FnMut(u64) -> u64) -> f64 {
    body(iters / 4); // warm caches and lazy state
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| body(iters) as f64 / iters as f64)
        .collect();
    median(&per)
}

fn timed(f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as u64
}

/// Run every rung and set its metric.
pub fn run(out: &mut Outcome) {
    let rt = Runtime::new(runtime_config(1, false, false, EngineKind::Sim));
    rt.run(|| {
        let core = current_runtime();
        let a = alloc_local(&core, 1u64);
        let b = alloc_local(&core, 2u64);

        // AtomicObject: one read + CAS attempt on a local object.
        let obj = AtomicObject::new(a);
        out.set(
            "atomics.local_cas_ns",
            rung(200_000, |n| {
                timed(|| {
                    for i in 0..n {
                        let cur = obj.read();
                        black_box(obj.compare_and_swap(cur, if i % 2 == 0 { b } else { a }));
                    }
                })
            }),
        );

        // AtomicAbaObject: one read_aba + 128-bit DCAS attempt, the step a
        // stack push repeats.
        let aba = AtomicAbaObject::new(a);
        out.set(
            "atomics.aba_dcas_ns",
            rung(200_000, |n| {
                timed(|| {
                    for i in 0..n {
                        let cur = aba.read_aba();
                        black_box(aba.compare_and_swap_aba(cur, if i % 2 == 0 { b } else { a }));
                    }
                })
            }),
        );

        let em = EpochManager::new();
        let tok = em.register();
        out.set(
            "epoch.pin_unpin_ns",
            rung(500_000, |n| {
                timed(|| {
                    for _ in 0..n {
                        tok.pin();
                        tok.unpin();
                    }
                })
            }),
        );

        // defer_delete alone: the objects are allocated before the clock
        // starts and reclaimed after it stops.
        out.set(
            "epoch.defer_delete_ns",
            rung(100_000, |n| {
                let objs: Vec<GlobalPtr<u64>> = (0..n).map(|i| alloc_local(&core, i)).collect();
                tok.pin();
                let ns = timed(|| {
                    for &o in &objs {
                        tok.defer_delete(o);
                    }
                });
                tok.unpin();
                em.clear();
                ns
            }),
        );
        drop(tok);

        out.set(
            "sim.alloc_free_ns",
            rung(200_000, |n| {
                timed(|| {
                    for i in 0..n {
                        let p = alloc_local(&core, black_box(i));
                        // SAFETY: `p` was just allocated here and is not
                        // shared; it is freed exactly once.
                        unsafe { free(&core, p) };
                    }
                })
            }),
        );

        // SAFETY: the atomic cells holding `a` and `b` are not used again
        // and never dereference them; each pointer is freed exactly once.
        unsafe {
            free(&core, a);
            free(&core, b);
        }
    });

    // One GET request and its 64-byte reply, encoded and decoded in
    // memory: the wire layer without a socket.
    let req = Msg::Get {
        offset: 64,
        len: 64,
    };
    let reply = Msg::ReplyBytes(vec![0xa5; 64]);
    out.set(
        "net.wire_codec_ns",
        rung(200_000, |n| {
            let mut buf = Vec::with_capacity(256);
            timed(|| {
                for seq in 0..n {
                    for m in [&req, &reply] {
                        buf.clear();
                        wire::write_msg(&mut buf, seq, m).expect("in-memory write cannot fail");
                        let (s, back) =
                            wire::read_msg(&mut buf.as_slice()).expect("own frame decodes");
                        black_box((s, back));
                    }
                }
            })
        }),
    );

    let rtt = loopback_rtt_us(&req, &reply);
    match rtt {
        Ok(us) => out.set("net.loopback_echo_rtt_us", us),
        Err(e) => {
            out.set("net.loopback_echo_rtt_us", 0.0);
            out.fail(format!("loopback echo rung: {e}"));
        }
    }
}

/// Median round trip of a bare loopback `TcpStream` ping-pong carrying
/// the same frame sizes as a GET and its reply, with no engine. Both ends
/// share one CPU, as each `proc-rma` request chain does.
fn loopback_rtt_us(req: &Msg, reply: &Msg) -> std::io::Result<f64> {
    let frame = |m: &Msg| {
        let mut v = Vec::new();
        wire::write_msg(&mut v, 1, m).expect("in-memory write cannot fail");
        v
    };
    let (req, reply) = (frame(req), frame(reply));
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let (req_len, reply_echo) = (req.len(), reply.clone());
    let server = std::thread::spawn(move || -> std::io::Result<()> {
        pin_client(0, 1);
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = vec![0u8; req_len];
        loop {
            match s.read_exact(&mut buf) {
                Ok(()) => s.write_all(&reply_echo)?,
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    });
    let client = std::thread::spawn(move || -> std::io::Result<f64> {
        pin_client(0, 1);
        let mut c = TcpStream::connect(addr)?;
        c.set_nodelay(true)?;
        let mut back = vec![0u8; reply.len()];
        let mut per = Vec::with_capacity(BATCHES);
        for batch in 0..=BATCHES {
            let n = 2_000;
            let t0 = Instant::now();
            for _ in 0..n {
                c.write_all(&req)?;
                c.read_exact(&mut back)?;
            }
            if batch > 0 {
                per.push(t0.elapsed().as_nanos() as f64 / n as f64 / 1e3);
            }
        }
        Ok(median(&per))
    });
    let result = client.join().expect("echo client panicked");
    if result.is_err() {
        // Unblock a server still waiting in `accept`.
        let _ = TcpStream::connect(addr);
    }
    // Closing the client (dropped above) ends the server loop.
    let served = server.join().expect("echo server panicked");
    let rtt = result?;
    served?;
    Ok(rtt)
}
