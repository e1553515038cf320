//! Property-based tests (proptest) over the core invariants: pointer
//! compression, ABA counters, limbo-list/stack/queue semantics, and the
//! distributed `forall` index partition.

use pgas_nonblocking::epoch::EPOCHS;
use pgas_nonblocking::prelude::*;
use pgas_nonblocking::sim::WideGlobalPtr;
use proptest::prelude::*;

proptest! {
    /// Compression roundtrip: any (locale, 48-bit address) survives
    /// pack/unpack, with and without the mark bit.
    #[test]
    fn compression_roundtrip(locale in 0u16..=u16::MAX, addr in 0usize..(1usize << 48)) {
        let addr = addr & !1; // mark bit must be clear in a real address
        let p = GlobalPtr::<u64>::new(locale, addr);
        prop_assert_eq!(p.locale(), locale);
        prop_assert_eq!(p.addr(), addr);
        let m = p.with_mark();
        prop_assert!(m.is_marked());
        prop_assert_eq!(m.locale(), locale);
        prop_assert_eq!(m.addr(), addr);
        prop_assert_eq!(m.without_mark(), p);
        // bits roundtrip
        prop_assert_eq!(GlobalPtr::<u64>::from_bits(p.into_bits()), p);
    }

    /// Wide pointers roundtrip through their word-pair representation for
    /// any 64-bit locale word.
    #[test]
    fn wide_roundtrip(locale in 0u64.., addr in 0usize..) {
        let w = WideGlobalPtr::<u8>::new(locale, addr);
        let (hi, lo) = w.into_words();
        prop_assert_eq!(WideGlobalPtr::<u8>::from_words(hi, lo), w);
        prop_assert_eq!(w.locale(), locale);
    }

    /// Compression policy: exactly the systems over 2^16 locales need the
    /// wide fallback.
    #[test]
    fn compression_policy(n in 1usize..(1usize << 20)) {
        use pgas_nonblocking::atomics::{preferred_mode, requires_wide, MAX_COMPRESSED_LOCALES};
        prop_assert_eq!(requires_wide(n), n > MAX_COMPRESSED_LOCALES);
        let mode = preferred_mode(n);
        if n <= MAX_COMPRESSED_LOCALES {
            prop_assert_eq!(mode, PointerMode::Compressed);
        } else {
            prop_assert_eq!(mode, PointerMode::Wide);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The ABA counter counts successful mutations exactly, for any
    /// operation sequence.
    #[test]
    fn aba_counter_counts_successful_mutations(ops in proptest::collection::vec(0u8..4, 1..60)) {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let rt_h = current_runtime();
            let a = alloc_local(&rt_h, 1u64);
            let b = alloc_local(&rt_h, 2u64);
            let cell = AtomicAbaObject::new(a);
            let mut expected_count = 0u64;
            for op in &ops {
                match op {
                    0 => {
                        let snap = cell.read_aba();
                        prop_assert_eq!(snap.get_aba_count(), expected_count);
                    }
                    1 => {
                        cell.write_aba(b);
                        expected_count += 1;
                    }
                    2 => {
                        let _ = cell.exchange_aba(a);
                        expected_count += 1;
                    }
                    _ => {
                        let snap = cell.read_aba();
                        // CAS with the *current* snapshot always succeeds.
                        prop_assert!(cell.compare_and_swap_aba(snap, b));
                        expected_count += 1;
                    }
                }
            }
            prop_assert_eq!(cell.read_aba().get_aba_count(), expected_count);
            unsafe { free(&rt_h, a); free(&rt_h, b); }
            Ok(())
        })?;
    }

    /// Stack behaves as a sequential LIFO for any push/pop interleaving
    /// from one task.
    #[test]
    fn stack_matches_vec_model(ops in proptest::collection::vec(proptest::option::of(0u64..1000), 1..80)) {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let s = LockFreeStack::new();
            let tok = s.register();
            let mut model = Vec::new();
            for op in &ops {
                match op {
                    Some(v) => {
                        s.push(&tok, *v);
                        model.push(*v);
                    }
                    None => {
                        prop_assert_eq!(s.pop(&tok), model.pop());
                    }
                }
            }
            while let Some(expect) = model.pop() {
                prop_assert_eq!(s.pop(&tok), Some(expect));
            }
            prop_assert_eq!(s.pop(&tok), None);
            Ok(())
        })?;
        assert_eq!(rt.live_objects(), 0);
    }

    /// Queue behaves as a sequential FIFO for any enqueue/dequeue
    /// interleaving from one task.
    #[test]
    fn queue_matches_deque_model(ops in proptest::collection::vec(proptest::option::of(0u64..1000), 1..80)) {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let q = MsQueue::new();
            let tok = q.register();
            let mut model = std::collections::VecDeque::new();
            for op in &ops {
                match op {
                    Some(v) => {
                        q.enqueue(&tok, *v);
                        model.push_back(*v);
                    }
                    None => {
                        prop_assert_eq!(q.dequeue(&tok), model.pop_front());
                    }
                }
            }
            while let Some(expect) = model.pop_front() {
                prop_assert_eq!(q.dequeue(&tok), Some(expect));
            }
            Ok(())
        })?;
        assert_eq!(rt.live_objects(), 0);
    }

    /// The skiplist matches a BTreeSet for any insert/remove/contains
    /// sequence, and its range scans match the model's ranges.
    #[test]
    fn skiplist_matches_btreeset_model(
        ops in proptest::collection::vec((0u8..4, 0u8..48, 0u8..48), 1..100)
    ) {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let s = LockFreeSkipList::new();
            let tok = s.register();
            let mut model = std::collections::BTreeSet::new();
            for (op, a, b) in &ops {
                match op {
                    0 => prop_assert_eq!(s.insert(&tok, *a), model.insert(*a)),
                    1 => prop_assert_eq!(s.remove(&tok, *a), model.remove(a)),
                    2 => prop_assert_eq!(s.contains(&tok, *a), model.contains(a)),
                    _ => {
                        let (lo, hi) = (*a.min(b), *a.max(b));
                        let got = s.collect_range(&tok, lo, hi);
                        let expect: Vec<u8> = model.range(lo..hi).copied().collect();
                        prop_assert_eq!(got, expect);
                    }
                }
            }
            prop_assert_eq!(s.len(), model.len());
            Ok(())
        })?;
        assert_eq!(rt.live_objects(), 0);
    }

    /// The Harris list matches a BTreeSet for any insert/remove/contains
    /// sequence.
    #[test]
    fn list_matches_btreeset_model(ops in proptest::collection::vec((0u8..3, 0u8..32), 1..100)) {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let l = LockFreeList::new();
            let tok = l.register();
            let mut model = std::collections::BTreeSet::new();
            for (op, k) in &ops {
                match op {
                    0 => prop_assert_eq!(l.insert(&tok, *k), model.insert(*k)),
                    1 => prop_assert_eq!(l.remove(&tok, *k), model.remove(k)),
                    _ => prop_assert_eq!(l.contains(&tok, *k), model.contains(k)),
                }
            }
            prop_assert_eq!(l.len(), model.len());
            Ok(())
        })?;
        assert_eq!(rt.live_objects(), 0);
    }

    /// forall_dist visits every index exactly once with cyclic affinity,
    /// for any (n, locales, tasks).
    #[test]
    fn forall_partition_is_exact(n in 0usize..200, locales in 1usize..5, tasks in 1usize..4) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rt = Runtime::new(RuntimeConfig::zero_latency(locales));
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        rt.run(|| {
            rt.forall_dist_tasks(n, tasks, |_, _| (), |_, i| {
                assert_eq!(pgas_nonblocking::sim::here() as usize, i % locales);
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "index {}", i);
        }
    }

    /// Epoch advancement is always to `e % EPOCHS + 1` (four epochs, see
    /// `pgas_epoch::math`) and the cycle never produces 0 or skips.
    #[test]
    fn epoch_cycle_never_skips(advances in 1usize..30) {
        let rt = Runtime::new(RuntimeConfig::zero_latency(1));
        rt.run(|| {
            let em = EpochManager::new();
            let mut prev = em.global_epoch();
            prop_assert_eq!(prev, 1);
            for _ in 0..advances {
                prop_assert!(em.try_reclaim());
                let cur = em.global_epoch();
                prop_assert_eq!(cur, (prev % EPOCHS) + 1);
                prop_assert!((1..=EPOCHS).contains(&cur));
                prev = cur;
            }
            Ok(())
        })?;
    }
}
