//! `EpochManager` — distributed epoch-based reclamation (§II-B/C).
//!
//! The manager is *privatized*: each locale holds its own instance (limbo
//! lists, token registry, epoch cache, election flag), and every access a
//! task makes goes to the instance local to that task — zero communication
//! on the hot path, which is what keeps Fig. 7's read-only workload flat
//! across locales. A single `GlobalEpoch` object (homed on locale 0) is
//! the point of consensus.
//!
//! `try_reclaim` follows Listing 4:
//!
//! 1. Win the **local** election flag (first-come-first-serve; losers
//!    return immediately — "swiftly, without much wasted effort").
//! 2. Win the **global** election flag (losers clear the local flag and
//!    return).
//! 3. Scan every locale's allocated tokens; the advance is safe only if
//!    every token is quiescent or pinned in the current global epoch.
//! 4. If safe: bump the global epoch (`(e % 4) + 1` — four epochs where
//!    the paper has three, see [`crate::math`]), then on every locale
//!    update the cached epoch, detach the three-advances-old limbo list,
//!    and **scatter** its objects by owning locale so each destination
//!    receives one bulk-free active message instead of one RPC per object.
//! 5. Clear both flags.
//!
//! [`Token::pin`] validates its pin (publish, re-read the cached epoch,
//! retry if it moved), so every pinned token is in the global epoch or
//! one behind it — the precondition the four-epoch rule relies on.
//!
//! `clear` reclaims every limbo list unconditionally and must only be
//! called in quiescence (single-owner teardown), as in the paper.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use pgas_atomics::AtomicInt;
use pgas_sim::engine::Batcher;
use pgas_sim::faults::invariants::ReclaimObserver;
use pgas_sim::telemetry::OpClass;
use pgas_sim::{ctx, vtime, Erased, GlobalPtr, LocaleId, Privatized, RuntimeCore, RuntimeHandle};

use crate::limbo::{LimboList, NodePool};
use crate::math::{limbo_index, next_epoch, reclaim_epoch, EPOCHS};
use crate::stats::{ReclaimSnapshot, ReclaimStats};
use crate::token::{TokenRegistry, TokenSlot, QUIESCENT};

/// The single, centralized epoch all locales agree on. Wrapped in its own
/// struct (the paper wraps it in a class instance) and homed on locale 0;
/// reads/writes from elsewhere are remote atomics.
struct GlobalEpoch {
    epoch: AtomicInt,
    is_setting_epoch: AtomicInt,
}

/// One locale's privatized instance.
struct LocaleInstance {
    /// Locale-private cache of the current epoch (reduces communication:
    /// pin/defer consult this, never the global).
    locale_epoch: AtomicInt,
    /// Local first-come-first-serve election flag.
    is_setting_epoch: AtomicInt,
    limbo: [LimboList; EPOCHS as usize],
    /// Earliest `defer_delete` virtual time still parked in each limbo
    /// slot (`u64::MAX` when empty). Drains swap it out and report the
    /// pin-to-reclaim latency to the locale's telemetry registry
    /// ([`pgas_sim::telemetry::OpClass::Reclaim`]).
    first_defer_vtime: [AtomicU64; EPOCHS as usize],
    pool: NodePool,
    tokens: TokenRegistry,
}

// SAFETY: every field is itself thread-safe; instances are shared across
// the locale's tasks by design.
unsafe impl Send for LocaleInstance {}
unsafe impl Sync for LocaleInstance {}

/// Distributed epoch-based memory reclamation.
pub struct EpochManager {
    rt: RuntimeHandle,
    global: GlobalEpoch,
    instances: Privatized<LocaleInstance>,
    stats: ReclaimStats,
    /// When false, reclamation frees remote objects one active message per
    /// object instead of batching by locale — the ablation knob for the
    /// scatter-list optimization (A1 in DESIGN.md).
    use_scatter: AtomicBool,
    /// Optional reclamation observer (see
    /// [`pgas_sim::faults::invariants`]): chaos harnesses install an
    /// invariant checker here to audit defer/advance/reclaim ordering.
    /// `OnceLock` keeps the no-observer fast path to one atomic load.
    observer: OnceLock<Arc<dyn ReclaimObserver>>,
}

/// RAII registration handle for one task (the paper's token, wrapped in a
/// managed class so scope exit unregisters it).
pub struct Token<'a> {
    mgr: &'a EpochManager,
    slot: &'a TokenSlot,
    locale: LocaleId,
}

impl EpochManager {
    /// Create a manager privatized over every locale of the current
    /// runtime. Must be called inside [`pgas_sim::RuntimeCore::run`] (or
    /// any task).
    pub fn new() -> EpochManager {
        let rt = ctx::current_runtime();
        let global = GlobalEpoch {
            epoch: AtomicInt::new_on(0, 1),
            is_setting_epoch: AtomicInt::new_on(0, 0),
        };
        let instances = Privatized::new(&rt, |l| LocaleInstance {
            locale_epoch: AtomicInt::new_on(l, 1),
            is_setting_epoch: AtomicInt::new_on(l, 0),
            limbo: std::array::from_fn(|_| LimboList::new()),
            first_defer_vtime: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
            pool: NodePool::new(),
            tokens: TokenRegistry::new(),
        });
        EpochManager {
            rt,
            global,
            instances,
            stats: ReclaimStats::default(),
            use_scatter: AtomicBool::new(true),
            observer: OnceLock::new(),
        }
    }

    /// Disable the scatter-list bulk free (remote objects are then freed
    /// one active message each). For the ablation benchmark.
    pub fn set_scatter(&self, enabled: bool) {
        self.use_scatter.store(enabled, Ordering::Relaxed);
    }

    /// Install a reclamation observer (at most once per manager); chaos
    /// harnesses use this to audit defer/advance/reclaim ordering with an
    /// [`pgas_sim::faults::invariants::InvariantChecker`].
    ///
    /// # Panics
    /// If an observer is already installed.
    pub fn set_observer(&self, obs: Arc<dyn ReclaimObserver>) {
        if self.observer.set(obs).is_err() {
            panic!("EpochManager already has a reclamation observer");
        }
    }

    /// Register the calling task with its locale's privatized instance.
    pub fn register(&self) -> Token<'_> {
        let locale = pgas_sim::here();
        Token {
            mgr: self,
            slot: self.instances.get().tokens.register(),
            locale,
        }
    }

    /// The global epoch (a remote read unless on locale 0).
    pub fn global_epoch(&self) -> u64 {
        self.global.epoch.read()
    }

    /// The calling locale's cached epoch.
    pub fn local_epoch(&self) -> u64 {
        self.instances.get().locale_epoch.read()
    }

    /// Listing 4: attempt a global epoch advance + reclamation. Returns
    /// `true` if this call advanced the epoch. Non-blocking: callers that
    /// lose either election return immediately.
    pub fn try_reclaim(&self) -> bool {
        let inst = self.instances.get();
        // Local election: one candidate per locale.
        if inst.is_setting_epoch.test_and_set() {
            ReclaimStats::bump(&self.stats.lost_local_election);
            return false;
        }
        // Global election: one candidate across the system.
        if self.global.is_setting_epoch.test_and_set() {
            inst.is_setting_epoch.clear();
            ReclaimStats::bump(&self.stats.lost_global_election);
            return false;
        }

        let this_epoch = self.global.epoch.read();
        // Is it safe to reclaim across all locales? (`&&` reduction)
        let safe = std::sync::atomic::AtomicBool::new(true);
        self.rt.coforall_locales(|_| {
            let _this = self.instances.get();
            for tok in _this.tokens.iter() {
                let e = tok.epoch();
                if e != QUIESCENT && e != this_epoch {
                    safe.store(false, Ordering::Relaxed);
                    break;
                }
            }
        });

        let advanced = if safe.load(Ordering::Relaxed) {
            let new_epoch = next_epoch(this_epoch);
            self.global.epoch.write(new_epoch);
            ReclaimStats::bump(&self.stats.advances);
            if let Some(obs) = self.observer.get() {
                obs.on_advance(new_epoch);
            }
            let use_scatter = self.use_scatter.load(Ordering::Relaxed);
            self.rt.coforall_locales(|_| {
                let _this = self.instances.get();
                // Update each locale's cached epoch.
                _this.locale_epoch.write(new_epoch);
                let freed = ctx::with_core(|core, _| {
                    reclaim_list(
                        core,
                        _this,
                        reclaim_epoch(new_epoch),
                        use_scatter,
                        self.observer.get(),
                        new_epoch,
                        false,
                    )
                });
                ReclaimStats::add(&self.stats.objects_reclaimed, freed);
            });
            true
        } else {
            ReclaimStats::bump(&self.stats.unsafe_scans);
            false
        };

        self.global.is_setting_epoch.clear();
        inst.is_setting_epoch.clear();
        advanced
    }

    /// Ablation variant of [`Self::try_reclaim`] (A3 in DESIGN.md): what
    /// reclamation costs *without* the first-come-first-serve election.
    /// Every caller performs the full cross-locale token scan before
    /// checking whether anyone else is already advancing — the redundant
    /// communication the election flags exist to stem. Memory safety is
    /// preserved (the actual advance still goes through the flags); only
    /// the wasted scan work is modeled.
    pub fn try_reclaim_unelected(&self) -> bool {
        let this_epoch = self.global.epoch.read();
        let safe = std::sync::atomic::AtomicBool::new(true);
        self.rt.coforall_locales(|_| {
            let _this = self.instances.get();
            for tok in _this.tokens.iter() {
                let e = tok.epoch();
                if e != QUIESCENT && e != this_epoch {
                    safe.store(false, Ordering::Relaxed);
                    break;
                }
            }
        });
        if !safe.load(Ordering::Relaxed) {
            ReclaimStats::bump(&self.stats.unsafe_scans);
            return false;
        }
        self.try_reclaim()
    }

    /// Reclaim all objects across all epochs on all locales,
    /// unconditionally. Only call when no other task is interacting with
    /// the manager (e.g. teardown after a `forall` has joined).
    pub fn clear(&self) {
        let use_scatter = self.use_scatter.load(Ordering::Relaxed);
        self.rt.coforall_locales(|_| {
            let _this = self.instances.get();
            let mut freed = 0;
            for e in 1..=EPOCHS {
                freed += ctx::with_core(|core, _| {
                    // `during_clear = true`: the caller guarantees
                    // quiescence, so age rules are suspended for the
                    // observer.
                    reclaim_list(core, _this, e, use_scatter, self.observer.get(), e, true)
                });
            }
            ReclaimStats::add(&self.stats.objects_reclaimed, freed);
        });
    }

    /// TEST-ONLY: deliberately reclaim the *current* epoch's limbo list on
    /// the calling locale — a use-after-free bug by construction (the list
    /// is zero advances old, so pinned tasks may still hold references).
    /// Exists so chaos suites can prove the invariant checker detects real
    /// reclamation bugs rather than vacuously passing; never call it in
    /// real workloads.
    #[doc(hidden)]
    pub fn debug_reclaim_current_epoch_early(&self) -> u64 {
        let inst = self.instances.get();
        let e = inst.locale_epoch.read();
        let use_scatter = self.use_scatter.load(Ordering::Relaxed);
        let freed = ctx::with_core(|core, _| {
            reclaim_list(core, inst, e, use_scatter, self.observer.get(), e, false)
        });
        ReclaimStats::add(&self.stats.objects_reclaimed, freed);
        freed
    }

    /// Aggregate reclamation counters.
    pub fn stats(&self) -> ReclaimSnapshot {
        self.stats.snapshot()
    }

    /// A handle to the runtime this manager was created on.
    pub fn runtime(&self) -> RuntimeHandle {
        self.rt.clone()
    }

    /// Total token slots ever created across all locales.
    pub fn tokens_allocated(&self) -> u64 {
        self.instances
            .iter()
            .map(|(_, i)| i.tokens.allocated_count())
            .sum()
    }
}

/// Detach one locale's limbo list for `epoch`, scatter its contents by
/// owning locale, and free each group — one bulk active message per remote
/// destination (or one AM per object when `use_scatter` is off). Each
/// drained object is reported to `observer` (with the epoch whose list it
/// came from and the epoch current at reclamation) before it is freed;
/// `during_clear` marks quiescent teardown, where the observer's age rules
/// do not apply.
fn reclaim_list(
    core: &RuntimeCore,
    inst: &LocaleInstance,
    epoch: u64,
    use_scatter: bool,
    observer: Option<&Arc<dyn ReclaimObserver>>,
    current_epoch: u64,
    during_clear: bool,
) -> u64 {
    let observe = |e: &Erased| {
        if let Some(obs) = observer {
            obs.on_reclaim(e.addr(), epoch, current_epoch, during_clear);
        }
    };
    let first_defer = inst.first_defer_vtime[limbo_index(epoch)].swap(u64::MAX, Ordering::Relaxed);
    let n = if use_scatter {
        // The scatter list is a `Batcher` over erased objects: unbounded
        // per-destination buffers with one explicit flush at the end, so
        // each destination still receives exactly one bulk-free active
        // message per drained limbo list.
        let src = pgas_sim::here();
        let mut scatter = Batcher::new(core, usize::MAX, move |dest, batch: Vec<Erased>| {
            // SAFETY: the epoch protocol guarantees no task still holds
            // a reference to anything in a three-advances-old limbo list
            // (or the caller guaranteed quiescence for clear()); the
            // handler runs on `dest`, where every object in the batch
            // lives.
            unsafe { pgas_sim::free_erased_local_batch(core, batch, dest != src) };
        });
        let n = inst.limbo[limbo_index(epoch)]
            .take()
            .drain_into(&inst.pool, |e| {
                observe(&e);
                scatter.aggregate(e.owner(), e)
            });
        scatter.flush_all();
        n as u64
    } else {
        let n = inst.limbo[limbo_index(epoch)]
            .take()
            .drain_into(&inst.pool, |e| {
                observe(&e);
                // SAFETY: as above.
                unsafe { pgas_sim::free_erased(core, e) }
            });
        n as u64
    };
    let stats = &core.locale(pgas_sim::here()).stats;
    if first_defer != u64::MAX {
        stats.record(OpClass::Reclaim, vtime::now().saturating_sub(first_defer));
    }
    stats.record(OpClass::LimboDepth, n);
    n
}

impl Default for EpochManager {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for EpochManager {
    fn drop(&mut self) {
        if pgas_sim::try_here().is_some() {
            self.clear();
        } else {
            // Entered from outside any task (e.g. the manager outlived the
            // `run` block): re-enter the runtime to perform the final
            // reclamation with proper accounting.
            let rt = self.rt.clone();
            rt.run(|| self.clear());
        }
    }
}

impl<'a> Token<'a> {
    /// Enter the current (locale-cached) epoch.
    ///
    /// The pin is validated: after publishing the epoch it re-reads the
    /// cache and re-pins if an advance slipped in between, so a token is
    /// never more than one epoch behind the global epoch.
    pub fn pin(&self) {
        let cache = &self.mgr.instances.get_for(self.locale).locale_epoch;
        let mut e = cache.read();
        loop {
            self.slot.set_epoch(e);
            let now = cache.read();
            if now == e {
                break;
            }
            e = now;
        }
        if let Some(obs) = self.mgr.observer.get() {
            obs.on_pin(self.id(), e);
        }
    }

    /// Leave the epoch.
    pub fn unpin(&self) {
        // Report before publishing, so the observer never sees a pin that
        // has already ended.
        if let Some(obs) = self.mgr.observer.get() {
            obs.on_unpin(self.id());
        }
        self.slot.set_epoch(QUIESCENT);
    }

    /// The identity reported to the observer: the token slot's address.
    fn id(&self) -> usize {
        self.slot as *const TokenSlot as usize
    }

    /// True while pinned.
    pub fn is_pinned(&self) -> bool {
        self.slot.epoch_relaxed() != QUIESCENT
    }

    /// The epoch this token is pinned in (0 when unpinned).
    pub fn pinned_epoch(&self) -> u64 {
        self.slot.epoch_relaxed()
    }

    /// Defer deletion of a logically-removed object (which may live on any
    /// locale) until no task can hold a reference. Wait-free: one atomic
    /// exchange on the local limbo list.
    ///
    /// # Panics
    /// In debug builds, if the token is not pinned.
    pub fn defer_delete<T: Send>(&self, ptr: GlobalPtr<T>) {
        let e = self.slot.epoch_relaxed();
        debug_assert_ne!(e, QUIESCENT, "defer_delete requires a pinned token");
        ReclaimStats::bump(&self.mgr.stats.objects_deferred);
        if let Some(obs) = self.mgr.observer.get() {
            obs.on_defer(ptr.addr(), e);
        }
        let inst = self.mgr.instances.get_for(self.locale);
        inst.limbo[limbo_index(e)].push_node(inst.pool.get(), Erased::new(ptr));
        // Remember when this slot first became non-empty so the eventual
        // drain can report pin-to-reclaim latency (bookkeeping only —
        // charges no virtual time).
        inst.first_defer_vtime[limbo_index(e)].fetch_min(vtime::now(), Ordering::Relaxed);
    }

    /// Forward to [`EpochManager::try_reclaim`].
    pub fn try_reclaim(&self) -> bool {
        self.mgr.try_reclaim()
    }
}

/// RAII pin: created by [`Token::pin_guard`], unpins on drop. References
/// obtained from epoch-protected cells (e.g.
/// [`crate::owned::OwnedAtomic::load`]) borrow the guard, so the type
/// system enforces that no reference outlives the pin.
pub struct PinGuard<'g, 'a> {
    tok: &'g Token<'a>,
}

impl<'a> Token<'a> {
    /// Pin and return a guard that unpins when dropped.
    pub fn pin_guard(&self) -> PinGuard<'_, 'a> {
        self.pin();
        PinGuard { tok: self }
    }
}

impl Drop for PinGuard<'_, '_> {
    fn drop(&mut self) {
        self.tok.unpin();
    }
}

impl Drop for Token<'_> {
    fn drop(&mut self) {
        // `unregister` unpins; tell the observer first, as `unpin` does.
        if let Some(obs) = self.mgr.observer.get().filter(|_| self.is_pinned()) {
            obs.on_unpin(self.id());
        }
        self.mgr
            .instances
            .get_for(self.locale)
            .tokens
            .unregister(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{alloc_local, alloc_on, Runtime, RuntimeConfig};
    use std::sync::atomic::AtomicUsize;

    fn zrt(n: usize) -> Runtime {
        Runtime::new(RuntimeConfig::zero_latency(n))
    }

    #[test]
    fn epochs_start_at_one_everywhere() {
        let rt = zrt(3);
        rt.run(|| {
            let em = EpochManager::new();
            assert_eq!(em.global_epoch(), 1);
            rt.coforall_locales(|_| {
                assert_eq!(em.local_epoch(), 1);
            });
        });
    }

    #[test]
    fn try_reclaim_advances_global_and_all_caches() {
        let rt = zrt(3);
        rt.run(|| {
            let em = EpochManager::new();
            assert!(em.try_reclaim());
            assert_eq!(em.global_epoch(), 2);
            rt.coforall_locales(|_| {
                assert_eq!(em.local_epoch(), 2);
            });
        });
    }

    #[test]
    fn distributed_objects_reclaimed_after_three_advances() {
        let rt = zrt(4);
        rt.run(|| {
            let em = EpochManager::new();
            {
                let tok = em.register();
                tok.pin();
                for l in 0..4 {
                    tok.defer_delete(alloc_on(&rt, l, l as u64));
                }
                tok.unpin();
            }
            assert_eq!(rt.live_objects(), 4);
            em.try_reclaim();
            em.try_reclaim();
            assert_eq!(rt.live_objects(), 4, "two advances are not enough");
            em.try_reclaim();
            assert_eq!(rt.live_objects(), 0, "freed on the advance to e+3");
        });
    }

    #[test]
    fn defer_from_a_lagging_token_survives_a_current_reader() {
        // A pins in epoch 1, the epoch advances, B pins in 2 (and may now
        // hold X), A defers X into list 1 and unpins. The advance to 3 is
        // legal — everyone is in 2 or quiescent — but must not free X.
        let rt = zrt(2);
        rt.run(|| {
            let em = EpochManager::new();
            let (a, b) = (em.register(), em.register());
            a.pin();
            assert!(em.try_reclaim());
            b.pin();
            let x = alloc_on(&rt, 1, 5u64);
            a.defer_delete(x);
            a.unpin();
            assert!(em.try_reclaim(), "the advance to 3 is allowed");
            assert_eq!(rt.live_objects(), 1, "X is live while B is pinned");
            b.unpin();
        });
    }

    #[test]
    fn remote_pinned_token_blocks_global_advance() {
        let rt = zrt(2);
        rt.run(|| {
            let em = EpochManager::new();
            let pinned = std::sync::atomic::AtomicBool::new(false);
            let release = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|s| {
                // A task on locale 1 stays pinned in epoch 1.
                let em_ref = &em;
                let rt_ref = &rt;
                let pinned_ref = &pinned;
                let release_ref = &release;
                s.spawn(move || {
                    rt_ref.run(|| {
                        rt_ref.on(1, || {
                            let tok = em_ref.register();
                            tok.pin();
                            pinned_ref.store(true, Ordering::SeqCst);
                            while !release_ref.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                            tok.unpin();
                        });
                    });
                });
                while !pinned.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                assert!(em.try_reclaim(), "pinned in current epoch: ok");
                assert_eq!(em.global_epoch(), 2);
                assert!(
                    !em.try_reclaim(),
                    "token on locale 1 still pinned in epoch 1"
                );
                assert_eq!(em.global_epoch(), 2);
                release.store(true, Ordering::SeqCst);
            });
            assert!(em.try_reclaim(), "after unpin the advance goes through");
        });
    }

    #[test]
    fn observer_sees_clean_defer_advance_reclaim_ordering() {
        use pgas_sim::faults::invariants::InvariantChecker;
        let rt = zrt(4);
        rt.run(|| {
            let em = EpochManager::new();
            let checker = InvariantChecker::new();
            em.set_observer(checker.clone());
            {
                let tok = em.register();
                tok.pin();
                for l in 0..4 {
                    tok.defer_delete(alloc_on(&rt, l, l as u64));
                }
                tok.unpin();
            }
            em.try_reclaim();
            em.try_reclaim();
            em.try_reclaim();
            assert_eq!(rt.live_objects(), 0);
            assert_eq!(checker.defers(), 4);
            assert_eq!(checker.advances(), 3);
            assert_eq!(checker.reclaims(), 4);
            checker.check().expect("three-advance reclamation is legal");
        });
    }

    #[test]
    fn deliberately_early_reclamation_is_caught_by_the_checker() {
        use pgas_sim::faults::invariants::InvariantChecker;
        let rt = zrt(2);
        rt.run(|| {
            let em = EpochManager::new();
            let checker = InvariantChecker::new();
            em.set_observer(checker.clone());
            {
                let tok = em.register();
                tok.pin();
                tok.defer_delete(alloc_local(&rt, 7u64));
                tok.unpin();
            }
            // The planted bug: free the current epoch's limbo list with
            // zero advances. The objects really are freed (no task holds a
            // reference here), but the checker must flag the protocol
            // violation.
            let freed = em.debug_reclaim_current_epoch_early();
            assert_eq!(freed, 1);
            let errs = checker.check().unwrap_err();
            assert!(
                errs.iter().any(|e| e.contains("early reclamation")),
                "checker must catch the planted early free: {errs:?}"
            );
        });
    }

    #[test]
    fn early_free_under_a_pinned_reader_is_caught_by_the_pin_rule() {
        use pgas_sim::faults::invariants::InvariantChecker;
        let rt = zrt(2);
        rt.run(|| {
            let em = EpochManager::new();
            let checker = InvariantChecker::new();
            em.set_observer(checker.clone());
            let reader = em.register();
            reader.pin();
            {
                let tok = em.register();
                tok.pin();
                tok.defer_delete(alloc_local(&rt, 7u64));
                tok.unpin();
            }
            // The planted bug again, now with a second token pinned across
            // it: the pin-aware rule must name the reader.
            assert_eq!(em.debug_reclaim_current_epoch_early(), 1);
            let errs = checker.check().unwrap_err();
            assert!(
                errs.iter().any(|e| e.contains("pinned reader")),
                "checker must see the free under a pinned reader: {errs:?}"
            );
            reader.unpin();
        });
    }

    #[test]
    fn clear_does_not_trip_the_observer() {
        use pgas_sim::faults::invariants::InvariantChecker;
        let rt = zrt(2);
        rt.run(|| {
            let em = EpochManager::new();
            let checker = InvariantChecker::new();
            em.set_observer(checker.clone());
            {
                let tok = em.register();
                tok.pin();
                tok.defer_delete(alloc_on(&rt, 1, 1u64));
                tok.unpin();
            }
            em.clear();
            assert_eq!(rt.live_objects(), 0);
            checker.check().expect("clear() is exempt from age rules");
        });
    }

    #[test]
    fn scatter_uses_one_bulk_am_per_remote_locale() {
        let rt = zrt(4);
        rt.run(|| {
            let em = EpochManager::new();
            {
                let tok = em.register();
                tok.pin();
                for i in 0..30 {
                    tok.defer_delete(alloc_on(&rt, (i % 4) as LocaleId, i as u64));
                }
                tok.unpin();
            }
            rt.reset_metrics();
            em.clear();
            let s = rt.total_comm();
            assert_eq!(rt.live_objects(), 0);
            assert_eq!(s.bulk_frees, 3, "one bulk AM per remote destination");
            assert_eq!(s.remote_frees, 0, "no per-object frees");
            assert_eq!(s.bulk_freed_objects, 30);
        });
    }

    #[test]
    fn scatter_disabled_pays_per_object_ams() {
        let rt = zrt(4);
        rt.run(|| {
            let em = EpochManager::new();
            em.set_scatter(false);
            {
                let tok = em.register();
                tok.pin();
                for i in 0..30 {
                    tok.defer_delete(alloc_on(&rt, (i % 4) as LocaleId, i as u64));
                }
                tok.unpin();
            }
            rt.reset_metrics();
            em.clear();
            let s = rt.total_comm();
            assert_eq!(rt.live_objects(), 0);
            assert_eq!(s.bulk_frees, 0);
            assert_eq!(
                s.remote_frees, 22,
                "30 objects, 8 local to their drain locale (i%4==0 drained \
                 on locale 0): the rest pay one AM each"
            );
        });
    }

    #[test]
    fn election_admits_one_global_winner() {
        let rt = zrt(4);
        rt.run(|| {
            let em = EpochManager::new();
            let wins = AtomicUsize::new(0);
            rt.forall_dist_tasks(
                64,
                2,
                |_, _| (),
                |_, _| {
                    if em.try_reclaim() {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                },
            );
            let s = em.stats();
            assert_eq!(s.advances as usize, wins.load(Ordering::Relaxed));
            assert_eq!(
                s.advances + s.lost_local_election + s.lost_global_election + s.unsafe_scans,
                64
            );
        });
    }

    #[test]
    fn listing5_microbenchmark_workload() {
        // The paper's Listing 5, miniaturized: distributed objects, each
        // task defers deletion of the objects it visits and periodically
        // tries to reclaim.
        let rt = zrt(4);
        rt.run(|| {
            let num_objects = 400;
            let em = EpochManager::new();
            let objs: Vec<GlobalPtr<u64>> = (0..num_objects)
                .map(|i| alloc_on(&rt, (i % 4) as LocaleId, i as u64))
                .collect();
            assert_eq!(rt.live_objects(), num_objects as i64);
            rt.forall_dist_tasks(
                num_objects,
                2,
                |_, _| (em.register(), 0u64),
                |(tok, m), i| {
                    tok.pin();
                    tok.defer_delete(objs[i]);
                    tok.unpin();
                    *m += 1;
                    if *m % 16 == 0 {
                        tok.try_reclaim();
                    }
                },
            );
            em.clear();
            assert_eq!(rt.live_objects(), 0);
            let s = em.stats();
            assert_eq!(s.objects_deferred, num_objects as u64);
            assert_eq!(s.objects_reclaimed, num_objects as u64);
        });
    }

    #[test]
    fn tokens_usable_from_every_locale() {
        let rt = zrt(4);
        rt.run(|| {
            let em = EpochManager::new();
            rt.coforall_locales(|l| {
                let tok = em.register();
                tok.pin();
                tok.defer_delete(alloc_local(&rt, l as u64));
                tok.unpin();
            });
            em.clear();
            assert_eq!(rt.live_objects(), 0);
            assert_eq!(em.tokens_allocated(), 4, "one slot per locale");
        });
    }

    #[test]
    fn manager_dropped_outside_run_still_reclaims() {
        let rt = zrt(2);
        let em = rt.run(|| {
            let em = EpochManager::new();
            let tok = em.register();
            tok.pin();
            tok.defer_delete(alloc_on(&rt, 1, 5u64));
            tok.unpin();
            drop(tok);
            em
        });
        assert_eq!(rt.live_objects(), 1);
        drop(em); // re-enters the runtime to clear
        assert_eq!(rt.live_objects(), 0);
    }
}
