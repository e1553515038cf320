//! Epoch arithmetic.
//!
//! Epochs take the values `{1, 2, 3, 4}`, with `0` reserved for "not
//! pinned". Four limbo lists correspond to the four possible epoch values;
//! the list reclaimed after advancing to epoch `n` is the one three
//! advances old — which, in a 4-cycle, is also the value that will become
//! current *next*.
//!
//! The paper's Listing 4 cycles three epochs (`(e % 3) + 1`) and frees the
//! list two advances old. That is one advance too early: a task pinned one
//! epoch behind the global (its pin raced an advance) can defer an object
//! that a task pinned in the *current* epoch still holds, and the next
//! advance — allowed, since both are then in the current epoch or
//! quiescent — frees it. See DESIGN.md §EBR for the schedule.

/// Number of distinct epoch values / limbo lists.
pub const EPOCHS: u64 = 4;

/// The epoch after `e` (Listing 4's `(current_global_epoch % 3) + 1`, over
/// [`EPOCHS`] values).
#[inline]
pub fn next_epoch(e: u64) -> u64 {
    debug_assert!((1..=EPOCHS).contains(&e), "epoch out of range: {e}");
    (e % EPOCHS) + 1
}

/// After advancing *to* `new_epoch`, the epoch whose limbo list is safe to
/// reclaim (three advances old = `new_epoch - 3` ≡ `next_epoch(new_epoch)`
/// in the 4-cycle).
#[inline]
pub fn reclaim_epoch(new_epoch: u64) -> u64 {
    next_epoch(new_epoch)
}

/// Limbo-list array index for an epoch value.
#[inline]
pub fn limbo_index(e: u64) -> usize {
    debug_assert!((1..=EPOCHS).contains(&e), "epoch out of range: {e}");
    (e - 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_cycle_1_2_3_4() {
        assert_eq!(next_epoch(1), 2);
        assert_eq!(next_epoch(2), 3);
        assert_eq!(next_epoch(3), 4);
        assert_eq!(next_epoch(4), 1);
    }

    #[test]
    fn reclaim_is_three_advances_behind() {
        // advancing 1→2: reclaim 3 (the epoch three advances before 2 in
        // ...3,4,1,2)
        assert_eq!(reclaim_epoch(2), 3);
        assert_eq!(reclaim_epoch(3), 4);
        assert_eq!(reclaim_epoch(4), 1);
        assert_eq!(reclaim_epoch(1), 2);
        // equivalently: the list freed on reaching `n` is never one a
        // token may still be pinned in — `n` itself or the epoch one or
        // two advances behind it.
        for e in 1..=EPOCHS {
            let n = next_epoch(e);
            let m = next_epoch(n);
            let r = reclaim_epoch(m);
            assert_ne!(r, e);
            assert_ne!(r, n);
            assert_ne!(r, m);
        }
    }

    #[test]
    fn indices_are_zero_based() {
        assert_eq!(limbo_index(1), 0);
        assert_eq!(limbo_index(2), 1);
        assert_eq!(limbo_index(3), 2);
        assert_eq!(limbo_index(4), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    #[cfg(debug_assertions)]
    fn zero_epoch_has_no_limbo_list() {
        let _ = limbo_index(0);
    }
}
