//! Heavier concurrency stress tests: use-after-free canaries, cross-
//! structure interaction, and sustained churn with continuous
//! reclamation. These are the tests that would catch an EBR protocol
//! bug (premature reclamation) or a lost-update bug in the atomics.

use pgas_nonblocking::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// A value whose destructor poisons it, so any post-free read is caught.
struct Canary {
    magic: AtomicU64,
}

const ALIVE: u64 = 0xA11CE;

impl Canary {
    fn new() -> Canary {
        Canary {
            magic: AtomicU64::new(ALIVE),
        }
    }
    fn check(&self) {
        assert_eq!(
            self.magic.load(Ordering::SeqCst),
            ALIVE,
            "use-after-free detected"
        );
    }
}

impl Drop for Canary {
    fn drop(&mut self) {
        self.magic.store(0xDEAD, Ordering::SeqCst);
    }
}

#[test]
fn epoch_protects_readers_across_locales() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(4));
    rt.run(|| {
        let em = EpochManager::new();
        let cell = AtomicObject::new(alloc_local(&current_runtime(), Canary::new()));
        rt.coforall_locales(|l| {
            let tok = em.register();
            if l == 0 {
                // the writer: replace + defer, reclaiming as it goes
                for _ in 0..150 {
                    tok.pin();
                    let fresh = alloc_local(&current_runtime(), Canary::new());
                    let old = cell.exchange(fresh);
                    tok.defer_delete(old);
                    tok.unpin();
                    tok.try_reclaim();
                }
            } else {
                for _ in 0..400 {
                    tok.pin();
                    let p = cell.read();
                    unsafe { p.deref() }.check();
                    tok.unpin();
                }
            }
        });
        // teardown
        {
            let tok = em.register();
            tok.pin();
            tok.defer_delete(cell.read());
            tok.unpin();
        }
        em.clear();
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn stack_churn_with_continuous_reclaim() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let s: LockFreeStack<u64> = LockFreeStack::new();
        let net_pushed = AtomicU64::new(0);
        let net_popped = AtomicU64::new(0);
        rt.coforall_tasks(6, |t| {
            let tok = s.register();
            for i in 0..300u64 {
                s.push(&tok, t as u64 * 1000 + i);
                net_pushed.fetch_add(1, Ordering::Relaxed);
                if i % 2 == 1 && s.pop(&tok).is_some() {
                    net_popped.fetch_add(1, Ordering::Relaxed);
                }
                if i % 50 == 0 {
                    s.try_reclaim();
                }
            }
        });
        let tok = s.register();
        while s.pop(&tok).is_some() {
            net_popped.fetch_add(1, Ordering::Relaxed);
        }
        drop(tok);
        assert_eq!(
            net_pushed.load(Ordering::Relaxed),
            net_popped.load(Ordering::Relaxed)
        );
        s.clear_reclaim();
        let stats = s.epoch_manager().stats();
        assert_eq!(stats.objects_deferred, stats.objects_reclaimed);
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn queue_and_stack_share_a_runtime_without_interference() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let q: MsQueue<u64> = MsQueue::new();
        let s: LockFreeStack<u64> = LockFreeStack::new();
        rt.coforall_tasks(4, |t| {
            let qt = q.register();
            let st = s.register();
            for i in 0..200u64 {
                if t % 2 == 0 {
                    q.enqueue(&qt, i);
                    s.push(&st, i);
                } else {
                    let _ = q.dequeue(&qt);
                    let _ = s.pop(&st);
                }
                if i % 64 == 0 {
                    q.try_reclaim();
                    s.try_reclaim();
                }
            }
        });
        // Drain both.
        let qt = q.register();
        while q.dequeue(&qt).is_some() {}
        drop(qt);
        let st = s.register();
        while s.pop(&st).is_some() {}
        drop(st);
        q.clear_reclaim();
        s.clear_reclaim();
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn map_heavy_churn_against_model_per_key_ownership() {
    // Each task owns a disjoint key range; per-range sequential semantics
    // must hold even under global concurrency.
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let m: DistHashMap<u64, u64> = DistHashMap::new(16);
        rt.coforall_tasks(4, |t| {
            let tok = m.register();
            let base = t as u64 * 10_000;
            let mut present = std::collections::HashSet::new();
            for round in 0..400u64 {
                let k = base + round % 37;
                if present.contains(&k) {
                    assert_eq!(m.get(&tok, &k), Some(k));
                    assert!(m.remove(&tok, &k));
                    present.remove(&k);
                } else {
                    assert!(m.insert(&tok, k, k));
                    present.insert(k);
                    assert_eq!(m.get(&tok, &k), Some(k));
                }
                if round % 100 == 0 {
                    m.try_reclaim();
                }
            }
            for k in present {
                assert!(m.remove(&tok, &k));
            }
        });
        assert!(m.is_empty());
        m.clear_reclaim();
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn list_churn_with_canary_values() {
    // Nodes hold canaries; traversals must never touch a reclaimed node.
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let l: LockFreeList<u16> = LockFreeList::new();
        rt.coforall_tasks(5, |t| {
            let tok = l.register();
            for i in 0..300u32 {
                let k = ((t as u32 * 7 + i) % 64) as u16;
                match i % 3 {
                    0 => {
                        l.insert(&tok, k);
                    }
                    1 => {
                        l.remove(&tok, k);
                    }
                    _ => {
                        l.contains(&tok, k);
                    }
                }
                if i % 100 == 0 {
                    l.try_reclaim();
                }
            }
        });
        l.clear_reclaim();
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn rcu_array_grow_read_write_storm() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let a = pgas_nonblocking::structures::RcuArray::new(16, 64);
        rt.coforall_tasks(5, |t| {
            let tok = a.register();
            match t {
                0 => {
                    for g in 1..=8 {
                        a.grow(&tok, 64 + g * 64);
                        a.try_reclaim();
                    }
                }
                1 | 2 => {
                    for i in 0..500 {
                        let idx = (t * 31 + i) % 64;
                        a.write(&tok, idx, (idx * 2) as u64);
                    }
                }
                _ => {
                    for i in 0..500 {
                        let idx = (t * 17 + i) % 64;
                        let v = a.read(&tok, idx);
                        assert!(v == 0 || v == (idx * 2) as u64);
                    }
                }
            }
        });
        assert_eq!(a.len(), 64 + 8 * 64);
        a.clear_reclaim();
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn many_managers_coexist() {
    // Several independent EpochManagers on one runtime must not interfere
    // (each is its own privatized universe).
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let managers: Vec<EpochManager> = (0..4).map(|_| EpochManager::new()).collect();
        rt.coforall_tasks(4, |t| {
            let em = &managers[t];
            let tok = em.register();
            for i in 0..100u64 {
                tok.pin();
                tok.defer_delete(alloc_local(&current_runtime(), i));
                tok.unpin();
                if i % 10 == 0 {
                    tok.try_reclaim();
                }
            }
        });
        for em in &managers {
            em.clear();
            assert_eq!(em.stats().objects_deferred, 100);
            assert_eq!(em.stats().objects_reclaimed, 100);
        }
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn unelected_reclaim_is_safe_under_contention() {
    // The ablation path must remain memory-safe even when every task
    // hammers it.
    let rt = Runtime::new(RuntimeConfig::zero_latency(2));
    rt.run(|| {
        let em = EpochManager::new();
        rt.forall_dist(
            200,
            |_, _| em.register(),
            |tok, i| {
                tok.pin();
                tok.defer_delete(alloc_local(&current_runtime(), i as u64));
                tok.unpin();
                em.try_reclaim_unelected();
            },
        );
        em.clear();
    });
    assert_eq!(rt.live_objects(), 0);
}

/// Ops per task for [`queue_churn_oversubscribed_takes_each_value_once`]:
/// small enough for a debug `cargo test`, full size in release builds
/// (`cargo test --release --test stress`), where the early-free schedule
/// it guards against shows up within a run or two.
const QUEUE_CHURN_OPS: u64 = if cfg!(debug_assertions) {
    16_000
} else {
    200_000
};

#[test]
fn queue_churn_oversubscribed_takes_each_value_once() {
    // Four tasks on one locale (more tasks than a small host has cores, so
    // tasks are preempted mid-operation), alternating enqueue/dequeue and
    // advancing the epoch every 8 ops. An early free shows up as a value
    // taken twice, a garbage value, or a dequeued node with no value.
    const TASKS: u64 = 4;
    let rt = Runtime::new(RuntimeConfig::zero_latency(1));
    let mut taken: Vec<u64> = rt.run(|| {
        let q: MsQueue<u64> = MsQueue::new();
        let per_task: Vec<std::sync::Mutex<Vec<u64>>> =
            (0..TASKS).map(|_| Default::default()).collect();
        rt.coforall_tasks(TASKS as usize, |t| {
            let tok = q.register();
            let mut mine = Vec::new();
            let mut last_seq = [None::<u64>; TASKS as usize];
            for i in 0..QUEUE_CHURN_OPS {
                if i % 2 == 0 {
                    q.enqueue(&tok, (t as u64) << 32 | i);
                } else if let Some(v) = q.dequeue(&tok) {
                    // Per-producer FIFO, as one consumer sees it.
                    let (p, seq) = ((v >> 32) as usize, v & 0xffff_ffff);
                    assert!(p < TASKS as usize, "garbage value {v:#x}");
                    assert!(last_seq[p] < Some(seq), "producer {p} out of order");
                    last_seq[p] = Some(seq);
                    mine.push(v);
                }
                if i % 8 == 0 {
                    q.try_reclaim();
                }
            }
            *per_task[t].lock().unwrap() = mine;
        });
        let tok = q.register();
        let mut all: Vec<u64> = per_task
            .into_iter()
            .flat_map(|m| m.into_inner().unwrap())
            .collect();
        while let Some(v) = q.dequeue(&tok) {
            all.push(v);
        }
        drop(tok);
        q.clear_reclaim();
        all
    });
    taken.sort_unstable();
    let mut put: Vec<u64> = (0..TASKS)
        .flat_map(|t| (0..QUEUE_CHURN_OPS).step_by(2).map(move |i| t << 32 | i))
        .collect();
    put.sort_unstable();
    assert_eq!(taken.len(), put.len(), "values lost or duplicated");
    assert!(taken == put, "the values taken are not the values put");
    assert_eq!(rt.live_objects(), 0);
}
