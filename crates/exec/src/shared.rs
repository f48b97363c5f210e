//! Shared mutable output regions for multi-threaded partitioning.

use core::cell::UnsafeCell;

/// A fixed-size buffer that multiple worker threads write *disjoint* parts
/// of concurrently (the paper's parallel shuffling: every thread owns a
/// distinct slice of each partition's output region, computed from the
/// interleaved prefix sums of the per-thread histograms).
///
/// Safe Rust cannot express "interleaved disjoint writes" through slice
/// splitting, so workers obtain raw mutable views with
/// [`SharedBuffer::view_mut`], whose contract they must uphold.
pub struct SharedBuffer<T: Copy> {
    /// Element count, duplicated outside the `UnsafeCell` so `len()` and
    /// `is_empty()` never read through the cell while workers hold
    /// `view_mut` views (the buffer is never resized while shared).
    len: usize,
    data: UnsafeCell<Vec<T>>,
}

// SAFETY: concurrent access is governed by the view_mut contract.
unsafe impl<T: Copy + Send> Send for SharedBuffer<T> {}
unsafe impl<T: Copy + Send> Sync for SharedBuffer<T> {}

impl<T: Copy> SharedBuffer<T> {
    /// Wrap an existing vector.
    pub fn from_vec(v: Vec<T>) -> Self {
        SharedBuffer {
            len: v.len(),
            data: UnsafeCell::new(v),
        }
    }

    /// Number of elements. Always safe to call: the length lives in a
    /// plain field written at construction, so it never aliases the cell
    /// contents that concurrent workers may be writing.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A mutable view of the whole buffer.
    ///
    /// # Safety
    /// Callers must guarantee that between any two synchronization points
    /// no element is written by more than one thread, and no element is
    /// read by one thread while another writes it. The typical pattern is:
    /// workers write disjoint index sets, then cross a barrier before
    /// anyone reads.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn view_mut(&self) -> &mut [T] {
        (*self.data.get()).as_mut_slice()
    }

    /// Recover the underlying vector once all workers are done.
    pub fn into_vec(self) -> Vec<T> {
        self.data.into_inner()
    }

    /// A shared read-only view; callers must ensure no concurrent writers.
    ///
    /// # Safety
    /// See [`SharedBuffer::view_mut`].
    pub unsafe fn view(&self) -> &[T] {
        (*self.data.get()).as_slice()
    }
}

/// Per-morsel result slots for one scheduling phase.
///
/// Each slot is written exactly once — by whichever worker claimed the
/// corresponding morsel — before a barrier, and only read after it. This
/// is how morselized operators keep per-morsel state (histograms, staging
/// buffers, match counts) keyed by *morsel id* rather than worker id, which
/// is what makes their output independent of the claim schedule.
pub struct SlotMap<T> {
    /// Slot count, duplicated outside the `UnsafeCell` for the same
    /// reason as [`SharedBuffer::len`]: `len()` must not alias slots that
    /// workers are concurrently filling.
    len: usize,
    slots: UnsafeCell<Vec<Option<T>>>,
}

// SAFETY: concurrent access is governed by the put/get contracts below.
unsafe impl<T: Send> Send for SlotMap<T> {}
unsafe impl<T: Send> Sync for SlotMap<T> {}

impl<T> SlotMap<T> {
    /// `len` empty slots.
    pub fn new(len: usize) -> SlotMap<T> {
        SlotMap {
            len,
            slots: UnsafeCell::new((0..len).map(|_| None).collect()),
        }
    }

    /// Number of slots (a plain field — never reads through the cell).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the map has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fill slot `i`.
    ///
    /// # Safety
    /// At most one worker may write a given slot between two barriers, and
    /// no other worker may read it until after the next barrier.
    pub unsafe fn put(&self, i: usize, value: T) {
        let slots: &mut Vec<Option<T>> = &mut *self.slots.get();
        slots[i] = Some(value);
    }

    /// Read slot `i` (panics if it was never filled).
    ///
    /// # Safety
    /// All writers must have crossed a barrier before any reads.
    // Documented panic: reading an unfilled slot violates the contract.
    #[allow(clippy::expect_used)]
    pub unsafe fn get(&self, i: usize) -> &T {
        let slots: &Vec<Option<T>> = &*self.slots.get();
        slots[i].as_ref().expect("slot never filled before read")
    }

    /// Recover all slots once every worker is done.
    pub fn into_values(self) -> Vec<Option<T>> {
        self.slots.into_inner()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::parallel::parallel_scope;

    #[test]
    fn disjoint_parallel_writes() {
        let buf = SharedBuffer::from_vec(vec![0u32; 4 * 1000]);
        parallel_scope(4, |ctx| {
            // SAFETY: each worker writes only indexes == its id mod 4.
            let view = unsafe { buf.view_mut() };
            let t = ctx.thread_id;
            for i in (t..view.len()).step_by(4) {
                view[i] = (i * 2) as u32;
            }
        });
        let v = buf.into_vec();
        assert!(v.iter().enumerate().all(|(i, &x)| x == (i * 2) as u32));
    }

    #[test]
    fn slot_map_per_morsel_results() {
        use crate::morsel::{ExecPolicy, MorselQueue};
        let policy = ExecPolicy::new(4).with_morsel_tuples(100);
        let q = MorselQueue::new(5_000, &policy, 16);
        let slots: SlotMap<Vec<usize>> = SlotMap::new(q.morsel_count());
        parallel_scope(4, |ctx| {
            for m in ctx.morsels(&q) {
                // SAFETY: each morsel id is claimed exactly once.
                unsafe { slots.put(m.id, m.range.clone().collect()) };
            }
        });
        let values = slots.into_values();
        let total: usize = values
            .iter()
            .map(|v| v.as_ref().expect("unfilled slot").len())
            .sum();
        assert_eq!(total, 5_000);
        // slot i holds exactly morsel i's range, regardless of which
        // worker claimed it
        let mut next = 0;
        for v in values.iter().map(|v| v.as_ref().unwrap()) {
            for &x in v {
                assert_eq!(x, next);
                next += 1;
            }
        }
    }

    #[test]
    fn from_vec_roundtrip() {
        let buf = SharedBuffer::from_vec(vec![1u64, 2, 3]);
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
        assert_eq!(buf.into_vec(), vec![1, 2, 3]);
    }
}
