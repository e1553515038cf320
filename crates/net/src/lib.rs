//! # pgas-net — the multi-process transport backend
//!
//! [`ProcEngine`] is a second [`CommEngine`] implementation in which each
//! locale is a real OS process and every remote operation crosses loopback
//! TCP in the length-prefixed [`wire`] format. Where the simulator charges
//! virtual time and shares one address space, this backend pays physical
//! wall time and shares *nothing* — remote memory is reachable only
//! through each locale's registered symmetric heap
//! ([`pgas_sim::symheap::SymHeap`]) and registered handler functions
//! ([`pgas_sim::handlers`]), because raw pointers and closures cannot
//! cross a process boundary.
//!
//! ## Topology
//!
//! Every rank binds one loopback listener and knows every peer's address
//! (the `procbench` orchestrator performs that handshake over the agents'
//! stdin/stdout). Requests travel over per-destination pooled connections
//! — a connection carries one request at a time, so replies need no
//! demultiplexer, just a sequence-number cross-check. An async request
//! holds its connection until the reply is read, then returns it to the
//! pool. On the server side an acceptor thread starts one reader thread
//! per inbound connection, and that reader serves every request it
//! decodes itself and writes the reply on the same stream: no thread hop
//! sits between the socket and the symmetric heap.
//!
//! Requests are therefore served concurrently, at most one per inbound
//! connection — like the simulator's progress service with
//! `progress_threads > 1`. That needs no lock: every [`SymHeap`] op is an
//! atomic or a seqlock (and already races with the owner's own local
//! `sym_*` calls), and a registered handler is a plain `fn` over `Sync`
//! state.
//!
//! ## Counters and latency
//!
//! The engine bumps the same [`pgas_sim::stats::CommCounters`] counters the
//! simulator would for the equivalent operation (requester-side `am_sent`,
//! `gets`/`puts`/bytes; server-side `am_handled`, `cpu_atomics`,
//! `cpu_dcas`), so sim-vs-proc parity is checkable. Latency histograms are
//! stamped from [`std::time::Instant`] wall time — `AmRoundTrip`, `Get`,
//! `Put`, `AmService`, `VersionedRead` carry real loopback round trips
//! instead of model costs, and virtual time stays at zero.
//!
//! ## Versioned reads stay physically real
//!
//! [`CommEngine::sym_read_u128`] issues *two* one-sided GETs per optimistic
//! attempt — sequence+low half, then the whole cell — and validates that
//! both observed the same even sequence and the same low half. The torn
//! window between the two GETs is real concurrency against
//! [`SymHeap::wide_dcas`] on the owner, not a model artifact.
//!
//! [`SymHeap`]: pgas_sim::symheap::SymHeap
//! [`SymHeap::wide_dcas`]: pgas_sim::symheap::SymHeap::wide_dcas

pub mod wire;

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use pgas_sim::engine::{AtomicPath, CommEngine, Completion, CompletionWaiter};
use pgas_sim::handlers::{self, HandlerId};
use pgas_sim::runtime::RuntimeCore;
use pgas_sim::symheap::SymOp64;
use pgas_sim::telemetry::OpClass;
use pgas_sim::LocaleId;

use wire::Msg;

/// How a closure-shipping call fails on this backend: processes cannot
/// receive code, only registered-handler descriptors.
const NO_CLOSURES: &str = "ProcEngine cannot ship closures across processes; register a \
     handler fn (pgas_sim::handlers::register) and use \
     on_handler/on_handler_async, or symmetric-heap ops (sym_*)";

/// A connection as both ends use it: reads go through a buffer (one
/// `recv` per frame), writes go straight to the socket (one `send` per
/// frame, see [`wire::write_msg`]).
type Conn = BufReader<TcpStream>;

/// State shared by the engine, its server threads and its outstanding
/// async waiters.
struct EngineState {
    rank: LocaleId,
    shutdown: AtomicBool,
    core: OnceLock<Weak<RuntimeCore>>,
    /// Per-destination pool of idle request connections (checkout is
    /// exclusive: one in-flight request per connection).
    pools: Vec<Mutex<Vec<Conn>>>,
    /// A clone of every live accepted connection, so
    /// [`ProcEngine::shutdown`] can unblock its reader thread. A reader
    /// removes its own entry when it exits.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Reader-thread handles (finished ones are pruned by the acceptor,
    /// the rest joined at shutdown).
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl EngineState {
    /// Return an idle connection to `dest`'s pool; once shutdown has begun
    /// it is closed instead. The flag is read under the pool lock, so a
    /// connection is either drained by shutdown or never pooled.
    fn checkin(&self, dest: LocaleId, conn: Conn) {
        let mut pool = self.pools[dest as usize].lock();
        if !self.shutdown.load(Ordering::SeqCst) {
            pool.push(conn);
        }
    }

    /// Serve one inbound connection until the peer hangs up or shutdown
    /// closes it: each request is executed right here, on the thread that
    /// decoded it, and answered on the same stream.
    fn serve_conn(&self, stream: TcpStream) {
        let mut conn = BufReader::new(stream);
        while let Ok(Some((seq, msg))) = wire::read_msg_opt(&mut conn) {
            let Some(core) = self.core.get().and_then(Weak::upgrade) else {
                break;
            };
            let reply = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                core.run_on(self.rank, || serve(&core, self.rank, msg))
            })) {
                Ok(r) => r,
                Err(p) => Msg::ReplyErr(panic_message(&*p)),
            };
            if wire::write_msg(conn.get_mut(), seq, &reply).is_err() {
                break; // Requester hung up.
            }
        }
    }
}

/// The multi-process [`CommEngine`] backend (see the crate docs).
pub struct ProcEngine {
    rank: LocaleId,
    nlocales: usize,
    peers: Vec<SocketAddr>,
    /// Taken by the acceptor thread at [`CommEngine::bind`].
    listener: Mutex<Option<TcpListener>>,
    local_addr: SocketAddr,
    seq: AtomicU64,
    state: Arc<EngineState>,
    /// The acceptor thread (started at bind, joined at shutdown).
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for ProcEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcEngine")
            .field("rank", &self.rank)
            .field("nlocales", &self.nlocales)
            .field("addr", &self.local_addr)
            .finish()
    }
}

impl ProcEngine {
    /// Build the engine for locale `rank` of `peers.len()` locales.
    /// `listener` must already be bound (so ranks can exchange addresses
    /// before anyone starts a runtime); `peers[rank]` must be its address.
    /// The server threads start when the runtime calls
    /// [`CommEngine::bind`].
    pub fn new(rank: LocaleId, listener: TcpListener, peers: Vec<SocketAddr>) -> ProcEngine {
        let local_addr = listener.local_addr().expect("listener has no local addr");
        assert!(
            (rank as usize) < peers.len(),
            "rank {rank} out of range for {} peers",
            peers.len()
        );
        ProcEngine {
            rank,
            nlocales: peers.len(),
            listener: Mutex::new(Some(listener)),
            local_addr,
            seq: AtomicU64::new(1),
            state: Arc::new(EngineState {
                rank,
                shutdown: AtomicBool::new(false),
                core: OnceLock::new(),
                pools: (0..peers.len()).map(|_| Mutex::new(Vec::new())).collect(),
                conns: Mutex::new(HashMap::new()),
                readers: Mutex::new(Vec::new()),
            }),
            peers,
            acceptor: Mutex::new(None),
        }
    }

    /// This rank's listening address (what peers must be told).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The rank this process is.
    pub fn rank(&self) -> LocaleId {
        self.rank
    }

    /// Check out an idle connection to `dest` (connecting lazily).
    fn checkout(&self, dest: LocaleId) -> Conn {
        if let Some(c) = self.state.pools[dest as usize].lock().pop() {
            return c;
        }
        let addr = self.peers[dest as usize];
        let s = TcpStream::connect(addr).unwrap_or_else(|e| {
            panic!(
                "locale {}: cannot reach locale {dest} at {addr}: {e}",
                self.rank
            )
        });
        s.set_nodelay(true).ok();
        BufReader::new(s)
    }

    /// One blocking request/reply round trip to `dest`.
    fn request(&self, dest: LocaleId, msg: &Msg) -> Msg {
        let mut conn = self.checkout(dest);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        wire::write_msg(conn.get_mut(), seq, msg)
            .unwrap_or_else(|e| panic!("locale {}: send to {dest} failed: {e}", self.rank));
        let (rseq, reply) = wire::read_msg(&mut conn)
            .unwrap_or_else(|e| panic!("locale {}: reply from {dest} failed: {e}", self.rank));
        assert_eq!(rseq, seq, "proc transport: reply out of sequence");
        self.state.checkin(dest, conn);
        if let Msg::ReplyErr(e) = reply {
            panic!("remote handler on locale {dest} panicked: {e}");
        }
        reply
    }
}

/// Execute one server-side request against `core`'s local symmetric heap,
/// bumping the owner-side counters the simulator's handler path would.
/// Runs on the reader thread of the connection the request arrived on,
/// inside [`RuntimeCore::run_on`]; requests on different connections run
/// concurrently.
fn serve(core: &RuntimeCore, rank: LocaleId, msg: Msg) -> Msg {
    let locale = core.locale(rank);
    let stats = &locale.stats;
    let t0 = Instant::now();
    let reply = match msg {
        Msg::Atomic64 { offset, op } => {
            stats.am_handled.fetch_add(1, Ordering::Relaxed);
            stats.cpu_atomics.fetch_add(1, Ordering::Relaxed);
            Msg::ReplyU64(locale.sym.apply64(offset, op))
        }
        Msg::Dcas {
            offset,
            expected,
            new,
        } => {
            stats.am_handled.fetch_add(1, Ordering::Relaxed);
            stats.cpu_dcas.fetch_add(1, Ordering::Relaxed);
            let (ok, current) = locale.sym.wide_dcas(offset, expected, new);
            Msg::ReplyDcas { ok, current }
        }
        // One-sided: the requester does the counting (charge_get/charge_put
        // semantics), the owner CPU is a bystander.
        Msg::Get { offset, len } => {
            let mut buf = vec![0u8; len as usize];
            locale.sym.read_bytes(offset, &mut buf);
            return Msg::ReplyBytes(buf);
        }
        Msg::Put { offset, data } => {
            locale.sym.write_bytes(offset, &data);
            return Msg::ReplyUnit;
        }
        Msg::Handler { id, args } => {
            stats.am_handled.fetch_add(1, Ordering::Relaxed);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handlers::invoke(HandlerId(id), core, &args)
            })) {
                Ok(out) => Msg::ReplyBytes(out),
                Err(p) => Msg::ReplyErr(panic_message(&*p)),
            }
        }
        other => Msg::ReplyErr(format!("protocol error: unexpected request {other:?}")),
    };
    stats.record(OpClass::AmService, t0.elapsed().as_nanos() as u64);
    reply
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl CommEngine for ProcEngine {
    fn remote_atomic_u64(&self, core: &RuntimeCore, owner: LocaleId) -> AtomicPath {
        if owner == self.rank {
            core.locale(self.rank)
                .stats
                .cpu_atomics
                .fetch_add(1, Ordering::Relaxed);
            AtomicPath::CpuLocal
        } else {
            panic!(
                "ProcEngine: raw remote atomics cannot cross processes; \
                 use sym_atomic_u64 against the symmetric heap"
            );
        }
    }

    fn remote_dcas_u128(&self, core: &RuntimeCore, owner: LocaleId) -> AtomicPath {
        if owner == self.rank {
            core.locale(self.rank)
                .stats
                .cpu_dcas
                .fetch_add(1, Ordering::Relaxed);
            AtomicPath::CpuLocal
        } else {
            panic!(
                "ProcEngine: raw remote DCAS cannot cross processes; \
                 use sym_dcas_u128 against the symmetric heap"
            );
        }
    }

    fn remote_vread_u128(
        &self,
        _core: &RuntimeCore,
        _owner: LocaleId,
        _seq: &AtomicU64,
        _load: &dyn Fn() -> u128,
    ) -> Option<u128> {
        panic!(
            "ProcEngine: memory-based versioned reads cannot cross \
             processes; use sym_read_u128 against the symmetric heap"
        );
    }

    fn handler_atomic_u64(&self, core: &RuntimeCore) {
        core.locale(self.rank)
            .stats
            .cpu_atomics
            .fetch_add(1, Ordering::Relaxed);
    }

    fn handler_dcas_u128(&self, core: &RuntimeCore) {
        core.locale(self.rank)
            .stats
            .cpu_dcas
            .fetch_add(1, Ordering::Relaxed);
    }

    fn get(&self, _core: &RuntimeCore, owner: LocaleId, _bytes: usize) {
        assert!(
            owner == self.rank,
            "ProcEngine: raw-pointer GET cannot cross processes; use \
             sym_get against the symmetric heap"
        );
        // Local one-sided access is free and uncounted, as in the sim.
    }

    fn put(&self, _core: &RuntimeCore, owner: LocaleId, _bytes: usize) {
        assert!(
            owner == self.rank,
            "ProcEngine: raw-pointer PUT cannot cross processes; use \
             sym_put against the symmetric heap"
        );
    }

    fn on<'a>(&self, _core: &RuntimeCore, dest: LocaleId, f: Box<dyn FnOnce() + Send + 'a>) {
        assert!(dest == self.rank, "{NO_CLOSURES}");
        f();
    }

    fn on_async(
        &self,
        _core: &RuntimeCore,
        dest: LocaleId,
        f: Box<dyn FnOnce() + Send + 'static>,
    ) -> Completion {
        assert!(dest == self.rank, "{NO_CLOSURES}");
        f();
        Completion::done()
    }

    fn on_combined<'a>(
        &self,
        _core: &RuntimeCore,
        dest: LocaleId,
        f: Box<dyn FnOnce() + Send + 'a>,
    ) {
        assert!(dest == self.rank, "{NO_CLOSURES}");
        f();
    }

    fn bulk_on<'a>(
        &self,
        _core: &RuntimeCore,
        dest: LocaleId,
        _items: u64,
        f: Box<dyn FnOnce() + Send + 'a>,
    ) {
        assert!(dest == self.rank, "{NO_CLOSURES}");
        f();
    }

    // --- the wire-backed symmetric-heap family ---

    fn sym_atomic_u64(&self, core: &RuntimeCore, owner: LocaleId, offset: u64, op: SymOp64) -> u64 {
        if owner == self.rank {
            // Counts cpu_atomics via the local routing path.
            let _ = self.remote_atomic_u64(core, owner);
            return core.locale(self.rank).sym.apply64(offset, op);
        }
        let stats = &core.locale(self.rank).stats;
        stats.am_sent.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let reply = self.request(owner, &Msg::Atomic64 { offset, op });
        stats.record(OpClass::AmRoundTrip, t0.elapsed().as_nanos() as u64);
        match reply {
            Msg::ReplyU64(v) => v,
            other => panic!("protocol error: Atomic64 answered with {other:?}"),
        }
    }

    fn sym_dcas_u128(
        &self,
        core: &RuntimeCore,
        owner: LocaleId,
        offset: u64,
        expected: u128,
        new: u128,
    ) -> (bool, u128) {
        if owner == self.rank {
            let _ = self.remote_dcas_u128(core, owner);
            return core.locale(self.rank).sym.wide_dcas(offset, expected, new);
        }
        let stats = &core.locale(self.rank).stats;
        stats.am_sent.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let reply = self.request(
            owner,
            &Msg::Dcas {
                offset,
                expected,
                new,
            },
        );
        stats.record(OpClass::AmRoundTrip, t0.elapsed().as_nanos() as u64);
        match reply {
            Msg::ReplyDcas { ok, current } => (ok, current),
            other => panic!("protocol error: Dcas answered with {other:?}"),
        }
    }

    fn sym_read_u128(&self, core: &RuntimeCore, owner: LocaleId, offset: u64) -> u128 {
        if owner == self.rank {
            let _ = self.remote_dcas_u128(core, owner);
            return core.locale(self.rank).sym.wide_load(offset);
        }
        if core.config.vread_fastpath {
            // Two half-word GETs per attempt: the torn window between them
            // is physically real. GET 1 covers [seq, lo]; GET 2 re-reads
            // the whole cell [seq, lo, hi]. Valid iff both sequences are
            // equal and even and the low halves agree.
            let stats = &core.locale(self.rank).stats;
            let tries = core.config.vread_max_tries.max(1);
            let t0 = Instant::now();
            for _ in 0..tries {
                let a = self.fetch_bytes(core, owner, offset, 16);
                let b = self.fetch_bytes(core, owner, offset, 24);
                let seq1 = u64::from_le_bytes(a[0..8].try_into().unwrap());
                let lo1 = u64::from_le_bytes(a[8..16].try_into().unwrap());
                let seq2 = u64::from_le_bytes(b[0..8].try_into().unwrap());
                let lo2 = u64::from_le_bytes(b[8..16].try_into().unwrap());
                let hi = u64::from_le_bytes(b[16..24].try_into().unwrap());
                if seq1 % 2 == 0 && seq1 == seq2 && lo1 == lo2 {
                    stats.vread_fast.fetch_add(1, Ordering::Relaxed);
                    stats.record(OpClass::VersionedRead, t0.elapsed().as_nanos() as u64);
                    return ((hi as u128) << 64) | lo2 as u128;
                }
                stats.vread_retries.fetch_add(1, Ordering::Relaxed);
            }
            stats.vread_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        // DCAS slow path: value-preserving read via a full round trip.
        self.sym_dcas_u128(core, owner, offset, 0, 0).1
    }

    fn sym_get(&self, core: &RuntimeCore, owner: LocaleId, offset: u64, out: &mut [u8]) {
        if owner == self.rank {
            core.locale(self.rank).sym.read_bytes(offset, out);
            return;
        }
        let t0 = Instant::now();
        let data = self.fetch_bytes(core, owner, offset, out.len() as u32);
        core.locale(self.rank)
            .stats
            .record(OpClass::Get, t0.elapsed().as_nanos() as u64);
        out.copy_from_slice(&data);
    }

    fn sym_put(&self, core: &RuntimeCore, owner: LocaleId, offset: u64, data: &[u8]) {
        if owner == self.rank {
            core.locale(self.rank).sym.write_bytes(offset, data);
            return;
        }
        let stats = &core.locale(self.rank).stats;
        stats.puts.fetch_add(1, Ordering::Relaxed);
        stats
            .bytes_put
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let t0 = Instant::now();
        let reply = self.request(
            owner,
            &Msg::Put {
                offset,
                data: data.to_vec(),
            },
        );
        stats.record(OpClass::Put, t0.elapsed().as_nanos() as u64);
        match reply {
            Msg::ReplyUnit => {}
            other => panic!("protocol error: Put answered with {other:?}"),
        }
    }

    fn on_handler(&self, core: &RuntimeCore, dest: LocaleId, h: HandlerId, args: &[u8]) -> Vec<u8> {
        if dest == self.rank {
            return handlers::invoke(h, core, args);
        }
        let stats = &core.locale(self.rank).stats;
        stats.am_sent.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let reply = self.request(
            dest,
            &Msg::Handler {
                id: h.0,
                args: args.to_vec(),
            },
        );
        stats.record(OpClass::AmRoundTrip, t0.elapsed().as_nanos() as u64);
        match reply {
            Msg::ReplyBytes(out) => out,
            other => panic!("protocol error: Handler answered with {other:?}"),
        }
    }

    fn on_handler_async(
        &self,
        core: &RuntimeCore,
        dest: LocaleId,
        h: HandlerId,
        args: Vec<u8>,
    ) -> Completion {
        if dest == self.rank {
            let _ = handlers::invoke(h, core, &args);
            return Completion::done();
        }
        let stats = &core.locale(self.rank).stats;
        stats.am_sent.fetch_add(1, Ordering::Relaxed);
        let mut conn = self.checkout(dest);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        wire::write_msg(conn.get_mut(), seq, &Msg::Handler { id: h.0, args })
            .unwrap_or_else(|e| panic!("locale {}: async send to {dest} failed: {e}", self.rank));
        // The waiter owns the connection until the reply frame lands, then
        // returns it to the pool (the pool never sees a connection with a
        // reply in flight).
        Completion::from_waiter(Box::new(ProcWaiter {
            conn: Some(conn),
            state: Arc::clone(&self.state),
            seq,
            dest,
        }))
    }

    // --- lifecycle ---

    fn entry_locale(&self) -> LocaleId {
        self.rank
    }

    fn bind(&self, core: &Arc<RuntimeCore>) {
        assert_eq!(
            core.num_locales(),
            self.nlocales,
            "runtime has {} locales but the proc topology has {}",
            core.num_locales(),
            self.nlocales
        );
        self.state
            .core
            .set(Arc::downgrade(core))
            .expect("ProcEngine bound twice");
        // The acceptor: one reader thread per inbound connection, which
        // also serves that connection's requests.
        let listener = self
            .listener
            .lock()
            .take()
            .expect("ProcEngine bound twice (listener already taken)");
        let state = Arc::clone(&self.state);
        let acceptor = std::thread::Builder::new()
            .name(format!("pgas-proc-accept-{}", self.rank))
            .spawn(move || {
                let mut next_id = 0u64;
                loop {
                    let accepted = listener.accept();
                    if state.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok((stream, _)) = accepted else {
                        // Transient (e.g. out of file descriptors): back off
                        // and keep accepting rather than stop serving.
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    };
                    stream.set_nodelay(true).ok();
                    let Ok(clone) = stream.try_clone() else {
                        continue;
                    };
                    let id = next_id;
                    next_id += 1;
                    state.conns.lock().insert(id, clone);
                    let reader_state = Arc::clone(&state);
                    let reader = std::thread::Builder::new()
                        .name(format!("pgas-proc-read-{}", state.rank))
                        .spawn(move || {
                            reader_state.serve_conn(stream);
                            reader_state.conns.lock().remove(&id);
                        });
                    let mut readers = state.readers.lock();
                    readers.retain(|h| !h.is_finished());
                    match reader {
                        Ok(h) => readers.push(h),
                        Err(_) => {
                            state.conns.lock().remove(&id);
                        }
                    }
                }
            })
            .expect("failed to spawn proc accept thread");
        *self.acceptor.lock() = Some(acceptor);
    }

    fn shutdown(&self) {
        if self.state.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor (it re-checks the flag on wake) and wait for
        // it, so no reader starts after the sweep below.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.lock().take() {
            let _ = h.join();
        }
        // Unblock every reader (and any peer blocked on us replying).
        for (_, s) in self.state.conns.lock().drain() {
            let _ = s.shutdown(Shutdown::Both);
        }
        // Close idle outbound connections so peers' readers exit too.
        for pool in &self.state.pools {
            for c in pool.lock().drain(..) {
                let _ = c.get_ref().shutdown(Shutdown::Both);
            }
        }
        let readers = std::mem::take(&mut *self.state.readers.lock());
        for h in readers {
            let _ = h.join();
        }
    }
}

impl ProcEngine {
    /// One-sided GET round trip (requester-side counting shared by
    /// `sym_get` and the versioned-read attempts).
    fn fetch_bytes(&self, core: &RuntimeCore, owner: LocaleId, offset: u64, len: u32) -> Vec<u8> {
        let stats = &core.locale(self.rank).stats;
        stats.gets.fetch_add(1, Ordering::Relaxed);
        stats.bytes_got.fetch_add(len as u64, Ordering::Relaxed);
        let reply = self.request(owner, &Msg::Get { offset, len });
        match reply {
            Msg::ReplyBytes(data) => {
                assert_eq!(data.len(), len as usize, "short GET reply");
                data
            }
            other => panic!("protocol error: Get answered with {other:?}"),
        }
    }
}

impl Drop for ProcEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// [`CompletionWaiter`] over a connection with one reply frame in flight;
/// the connection goes back to the pool once the reply is read.
struct ProcWaiter {
    /// `None` once the reply was read or the connection was lost.
    conn: Option<Conn>,
    state: Arc<EngineState>,
    seq: u64,
    dest: LocaleId,
}

impl ProcWaiter {
    fn finish(&mut self) {
        let Some(mut conn) = self.conn.take() else {
            return;
        };
        // A torn-down connection (engine shutdown) abandons the result,
        // matching Completion's drop semantics.
        if let Ok((seq, reply)) = wire::read_msg(&mut conn) {
            assert_eq!(seq, self.seq, "proc transport: reply out of sequence");
            self.state.checkin(self.dest, conn);
            if let Msg::ReplyErr(e) = reply {
                panic!("remote handler on locale {} panicked: {e}", self.dest);
            }
        }
    }
}

impl CompletionWaiter for ProcWaiter {
    fn poll(&mut self) -> bool {
        let Some(conn) = &self.conn else {
            return true;
        };
        // Bytes already buffered are part of the reply; only peek the
        // socket when the buffer is empty.
        if conn.buffer().is_empty() {
            let s = conn.get_ref();
            s.set_nonblocking(true).ok();
            let r = s.peek(&mut [0u8; 1]);
            s.set_nonblocking(false).ok();
            match r {
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
                Err(_) => {
                    self.conn = None;
                    return true;
                }
            }
        }
        self.finish();
        true
    }

    fn wait(mut self: Box<Self>) {
        self.finish();
    }
}
