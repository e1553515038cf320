//! Per-locale communication and heap statistics.
//!
//! Every simulated communication primitive increments a counter here, so
//! tests can assert *exact* communication behaviour (e.g. "privatized access
//! performs zero communication", "the scatter list issues one bulk free per
//! locale") independently of the latency model.
//!
//! Counters are **striped per thread**: each locale keeps [`STRIPES`]
//! cache-padded copies of its counter block in one heap allocation, every
//! thread writes only the stripe it picked on first use, and readers
//! ([`crate::telemetry::Registry::snapshot`], [`HeapStats::live_objects`],
//! …) fold all stripes, so totals stay exact. A field reached through
//! `Deref` (`locale.stats.am_sent`) is the *calling thread's* stripe — fine
//! for `fetch_add`, meaningless to `load`. Read totals only through the
//! snapshot methods.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

/// Number of per-thread stripes each locale's counters and histograms are
/// split into (a power of two).
pub const STRIPES: usize = 8;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stripe, picked round-robin on its first use and
/// fixed for the thread's lifetime.
#[inline]
pub(crate) fn stripe_index() -> usize {
    STRIPE.with(|s| {
        let i = s.get();
        if i < STRIPES {
            return i;
        }
        let i = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
        s.set(i);
        i
    })
}

/// [`STRIPES`] cache-padded copies of `T` in one heap block. Writers touch
/// only [`Striped::local`]; readers fold [`Striped::iter`].
#[derive(Debug)]
pub(crate) struct Striped<T> {
    stripes: Box<[CachePadded<T>]>,
}

impl<T: Default> Default for Striped<T> {
    fn default() -> Self {
        Striped {
            stripes: (0..STRIPES)
                .map(|_| CachePadded::new(T::default()))
                .collect(),
        }
    }
}

impl<T> Striped<T> {
    /// The calling thread's stripe.
    #[inline]
    pub(crate) fn local(&self) -> &T {
        &self.stripes[stripe_index()]
    }

    /// Every stripe, for readers that fold them.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.stripes.iter().map(|s| &**s)
    }
}

macro_rules! counters {
    ($($(#[$m:meta])* $name:ident),+ $(,)?) => {
        /// One stripe of a locale's communication counters (see the module
        /// docs): the block a thread reaches through
        /// [`crate::telemetry::Registry`]'s `Deref`. Its fields hold only
        /// this stripe's share, so use them to count, never to read totals.
        #[derive(Debug, Default)]
        pub struct CommCounters {
            $($(#[$m])* pub $name: AtomicU64,)+
        }

        /// A plain-old-data snapshot of a locale's counters, subtractable
        /// to measure deltas across a benchmark phase.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct CommSnapshot {
            $($(#[$m])* pub $name: u64,)+
        }

        impl CommCounters {
            /// This stripe's values.
            pub(crate) fn snapshot(&self) -> CommSnapshot {
                CommSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }

            /// Zero this stripe. Callers must ensure quiescence.
            pub(crate) fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
            }
        }

        impl CommSnapshot {
            /// Render every counter as a hand-rolled JSON object, keys in
            /// declaration order. Serde-free by design (the vendor set is
            /// frozen); generated by the `counters!` macro so it can never
            /// drift from the counter list.
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(16 * 32);
                out.push('{');
                $(
                    out.push_str(concat!("\"", stringify!($name), "\": "));
                    out.push_str(&self.$name.to_string());
                    out.push_str(", ");
                )+
                out.truncate(out.len() - 2);
                out.push('}');
                out
            }
        }

        impl std::ops::Sub for CommSnapshot {
            type Output = CommSnapshot;
            fn sub(self, rhs: CommSnapshot) -> CommSnapshot {
                CommSnapshot {
                    $($name: self.$name.wrapping_sub(rhs.$name),)+
                }
            }
        }

        impl std::ops::Add for CommSnapshot {
            type Output = CommSnapshot;
            fn add(self, rhs: CommSnapshot) -> CommSnapshot {
                CommSnapshot {
                    $($name: self.$name.wrapping_add(rhs.$name),)+
                }
            }
        }

        impl fmt::Display for CommSnapshot {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                $(writeln!(f, "{:>24}: {}", stringify!($name), self.$name)?;)+
                Ok(())
            }
        }
    };
}

counters! {
    /// 64-bit atomics executed on the (simulated) NIC — RDMA atomics.
    rdma_atomics,
    /// Atomics executed by the local CPU (network atomics disabled, local
    /// target).
    cpu_atomics,
    /// 128-bit double-word CAS operations executed by the local CPU.
    cpu_dcas,
    /// Active messages *sent* from this locale.
    am_sent,
    /// Active messages *handled* by this locale's progress threads.
    am_handled,
    /// Batched active messages sent from this locale — bulk AMs that carry
    /// many aggregated operations (scatter-list frees, [`crate::engine::Batcher`]
    /// flushes). Each batch is also counted once in `am_sent`.
    am_batches,
    /// Individual operations carried inside batched active messages.
    am_batch_items,
    /// Combined active messages shipped by the combining layer
    /// ([`crate::engine::combine`]): each carries the pending operations of
    /// several tasks toward one destination and is also counted once in
    /// `am_sent`, `am_batches`.
    combines,
    /// Individual operations that rode combined active messages.
    combined_ops,
    /// One-sided PUT operations issued from this locale.
    puts,
    /// One-sided GET operations issued from this locale.
    gets,
    /// Bytes moved by PUTs.
    bytes_put,
    /// Bytes moved by GETs.
    bytes_got,
    /// Objects allocated on this locale at a remote task's request.
    remote_allocs,
    /// Objects freed individually via a remote free request.
    remote_frees,
    /// Bulk-free active messages handled by this locale (scatter-list
    /// path); each covers many objects.
    bulk_frees,
    /// Objects released through bulk frees.
    bulk_freed_objects,
    /// Remote operations re-sent after a fault-injected drop or timeout
    /// (see [`crate::faults`]). Always zero without a fault plan.
    retries,
    /// Remote operations whose retry budget was exhausted and that were
    /// escalated to a reliable (un-droppable) send. Always zero without a
    /// fault plan.
    gave_up,
    /// Sends dropped by fault injection before reaching the destination.
    injected_drops,
    /// Remote operations whose arrival was delayed by fault injection.
    injected_delays,
    /// Deliveries duplicated by fault injection (the duplicate is
    /// discarded by the receiver after paying dispatch cost).
    injected_dups,
    /// Versioned (seqlock) fast reads that validated on the optimistic
    /// path — no DCAS, no handler involvement. Always zero unless
    /// [`crate::RuntimeConfig::vread_fastpath`] is enabled.
    vread_fast,
    /// Optimistic versioned-read attempts re-run because the sequence
    /// counter moved inside the read window (torn window).
    vread_retries,
    /// Versioned reads that exhausted their retry budget and escalated to
    /// the DCAS slow path.
    vread_fallbacks,
}

impl CommSnapshot {
    /// Total communication *events* that crossed the network (excludes
    /// CPU-local atomics).
    pub fn network_events(&self) -> u64 {
        self.rdma_atomics + self.am_sent + self.puts + self.gets
    }

    /// True when no counter is set — i.e. a phase performed zero
    /// communication and zero tracked local atomics.
    pub fn is_zero(&self) -> bool {
        *self == CommSnapshot::default()
    }
}

/// One stripe of a locale's heap accounting. `live` may go negative in a
/// stripe whose thread frees more than it allocates; only the fold over
/// all stripes is meaningful.
#[derive(Debug, Default)]
struct HeapCells {
    live: AtomicI64,
    total_allocs: AtomicU64,
    total_frees: AtomicU64,
}

/// Heap accounting for one locale, striped per thread like the counters
/// (see the module docs). `live_objects` can be asserted to reach zero at
/// the end of a test to prove reclamation completeness.
#[derive(Debug, Default)]
pub struct HeapStats {
    stripes: Striped<HeapCells>,
}

impl HeapStats {
    pub(crate) fn on_alloc(&self) {
        let s = self.stripes.local();
        s.live.fetch_add(1, Ordering::Relaxed);
        s.total_allocs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_free(&self) {
        let s = self.stripes.local();
        s.live.fetch_sub(1, Ordering::Relaxed);
        s.total_frees.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of currently-live tracked objects.
    pub fn live_objects(&self) -> i64 {
        self.stripes
            .iter()
            .map(|s| s.live.load(Ordering::Relaxed))
            .sum()
    }

    /// Lifetime allocation count.
    pub fn allocations(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.total_allocs.load(Ordering::Relaxed))
            .sum()
    }

    /// Lifetime free count.
    pub fn frees(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.total_frees.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{OpClass, Registry};

    #[test]
    fn snapshot_sub_gives_delta() {
        let s = Registry::default();
        s.am_sent.fetch_add(3, Ordering::Relaxed);
        let a = s.snapshot();
        s.am_sent.fetch_add(4, Ordering::Relaxed);
        s.puts.fetch_add(1, Ordering::Relaxed);
        let b = s.snapshot();
        let d = b - a;
        assert_eq!(d.am_sent, 4);
        assert_eq!(d.puts, 1);
        assert_eq!(d.gets, 0);
    }

    #[test]
    fn network_events_excludes_cpu_atomics() {
        let mut s = CommSnapshot {
            cpu_atomics: 100,
            cpu_dcas: 50,
            ..CommSnapshot::default()
        };
        assert_eq!(s.network_events(), 0);
        s.rdma_atomics = 2;
        s.am_sent = 3;
        s.puts = 4;
        s.gets = 5;
        assert_eq!(s.network_events(), 14);
    }

    #[test]
    fn is_zero_detects_clean_phase() {
        let s = Registry::default();
        assert!(s.snapshot().is_zero());
        s.gets.fetch_add(1, Ordering::Relaxed);
        assert!(!s.snapshot().is_zero());
    }

    #[test]
    fn reset_zeroes_counters() {
        let s = Registry::default();
        s.rdma_atomics.fetch_add(9, Ordering::Relaxed);
        s.reset();
        assert!(s.snapshot().is_zero());
    }

    #[test]
    fn heap_stats_track_live() {
        let h = HeapStats::default();
        h.on_alloc();
        h.on_alloc();
        h.on_free();
        assert_eq!(h.live_objects(), 1);
        assert_eq!(h.allocations(), 2);
        assert_eq!(h.frees(), 1);
    }

    #[test]
    fn to_json_lists_every_counter_in_order() {
        let s = Registry::default();
        s.am_sent.fetch_add(7, Ordering::Relaxed);
        let j = s.snapshot().to_json();
        assert!(j.starts_with("{\"rdma_atomics\": 0, "));
        assert!(j.ends_with("\"vread_fallbacks\": 0}"));
        assert!(j.contains("\"am_sent\": 7"));
        // Exactly one key per counter, no trailing separator.
        assert_eq!(j.matches("\": ").count(), 25);
        assert!(!j.contains(", }"));
    }

    #[test]
    fn display_lists_every_counter() {
        let s = Registry::default().snapshot();
        let text = format!("{s}");
        assert!(text.contains("rdma_atomics"));
        assert!(text.contains("bulk_freed_objects"));
    }

    /// Run `f(t)` on `STRIPES + 3` fresh threads, so several threads share
    /// a stripe and every stripe is written by some thread.
    fn on_many_threads(f: impl Fn(usize) + Sync) {
        std::thread::scope(|s| {
            for t in 0..STRIPES + 3 {
                let f = &f;
                s.spawn(move || f(t));
            }
        });
    }

    #[test]
    fn stripe_index_is_stable_and_in_range() {
        let i = stripe_index();
        assert!(i < STRIPES);
        assert_eq!(stripe_index(), i, "a thread keeps its stripe");
    }

    #[test]
    fn striped_counters_snapshot_exactly() {
        const M: u64 = 10_000;
        let r = Registry::default();
        on_many_threads(|_| {
            for _ in 0..M {
                r.cpu_atomics.fetch_add(1, Ordering::Relaxed);
                r.bytes_put.fetch_add(3, Ordering::Relaxed);
            }
        });
        let n = (STRIPES + 3) as u64;
        let s = r.snapshot();
        assert_eq!(s.cpu_atomics, n * M);
        assert_eq!(s.bytes_put, 3 * n * M);
        assert_eq!(r.telemetry_snapshot().comm, s);
    }

    #[test]
    fn reset_zeroes_every_stripe() {
        let r = Registry::default();
        on_many_threads(|t| {
            r.am_sent.fetch_add(1, Ordering::Relaxed);
            r.record(OpClass::AmRoundTrip, t as u64 + 1);
        });
        assert_eq!(r.snapshot().am_sent, (STRIPES + 3) as u64);
        r.reset();
        for stripe in r.stripes_for_test() {
            assert!(stripe.snapshot().is_zero());
        }
        let t = r.telemetry_snapshot();
        assert!(t.comm.is_zero());
        assert!(t.class(OpClass::AmRoundTrip).is_empty());
    }

    #[test]
    fn live_objects_exact_across_threads() {
        const M: usize = 1_000;
        let h = HeapStats::default();
        // Allocate everything on one thread, free it on others: the
        // freeing threads' stripes go negative, the fold stays exact.
        std::thread::scope(|s| {
            s.spawn(|| (0..M * (STRIPES + 3)).for_each(|_| h.on_alloc()));
        });
        assert_eq!(h.live_objects(), (M * (STRIPES + 3)) as i64);
        on_many_threads(|_| (0..M).for_each(|_| h.on_free()));
        assert!(h.stripes.iter().any(|s| s.live.load(Ordering::Relaxed) < 0));
        assert_eq!(h.live_objects(), 0);
        assert_eq!(h.allocations(), (M * (STRIPES + 3)) as u64);
        assert_eq!(h.frees(), h.allocations());
    }

    #[test]
    fn histogram_merged_across_stripes_equals_one_thread() {
        let striped = Registry::default();
        let single = Registry::default();
        let sample = |t: usize, i: u64| (i * 37 + t as u64 * 1_000) % 50_000;
        on_many_threads(|t| {
            for i in 0..500 {
                striped.record(OpClass::Reclaim, sample(t, i));
            }
        });
        for t in 0..STRIPES + 3 {
            for i in 0..500 {
                single.record(OpClass::Reclaim, sample(t, i));
            }
        }
        assert_eq!(
            striped.telemetry_snapshot().class(OpClass::Reclaim),
            single.telemetry_snapshot().class(OpClass::Reclaim)
        );
    }
}
