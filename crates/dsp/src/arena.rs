//! One cache-aligned allocation backing every node output of a graph.
//!
//! The executor graph used to give each of its ~67 nodes an independently
//! heap-allocated `Vec<f32>` output buffer. [`BufferArena`] replaces those
//! with *slots* carved out of a single 64-byte-aligned block: each slot
//! starts on a cache-line boundary (no false sharing between neighbouring
//! node outputs, and aligned lane loads for the vector kernels), and the
//! whole arena is allocated once at graph build/reconfig time — the audio
//! hot path never touches the allocator.
//!
//! Slots are handed out as [`AudioBuf`] *views* ([`BufferArena::view`]).
//! The safety contract is narrow and enforced by the only caller (the
//! executor graph): the arena outlives every view, slots never overlap,
//! and per-cycle access to a slot is serialized by the executor's epoch
//! protocol.

use crate::buffer::AudioBuf;
use core::cell::UnsafeCell;

/// Floats per cache line; slot offsets are rounded up to this.
const LINE_FLOATS: usize = 16;

/// A 64-byte-aligned tile of samples.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct CacheLine([f32; LINE_FLOATS]);

/// One buffer's window into the arena.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Offset in floats from the arena base.
    offset: usize,
    channels: usize,
    frames: usize,
}

/// A single cache-aligned block of `f32` storage carved into buffer slots.
pub struct BufferArena {
    storage: Box<[UnsafeCell<CacheLine>]>,
    slots: Vec<Slot>,
}

// SAFETY: the arena itself is only carved up at build time; all runtime
// access goes through the `AudioBuf` views, whose aliasing is governed by
// the executor's epoch protocol (see `AudioBuf`'s Send/Sync rationale).
unsafe impl Send for BufferArena {}
unsafe impl Sync for BufferArena {}

impl BufferArena {
    /// Allocate one slot per `(channels, frames)` spec, each starting on a
    /// cache-line boundary.
    pub fn new(specs: &[(usize, usize)]) -> Self {
        let mut offset = 0usize;
        let mut slots = Vec::with_capacity(specs.len());
        for &(channels, frames) in specs {
            assert!(
                channels == 1 || channels == 2,
                "only mono and stereo buffers are supported"
            );
            slots.push(Slot {
                offset,
                channels,
                frames,
            });
            // Round each slot up to whole cache lines so the next slot is
            // aligned and no two slots share a line.
            let floats = channels * frames;
            offset += floats.div_ceil(LINE_FLOATS) * LINE_FLOATS;
        }
        let lines = offset / LINE_FLOATS;
        let storage = (0..lines)
            .map(|_| UnsafeCell::new(CacheLine([0.0; LINE_FLOATS])))
            .collect();
        BufferArena { storage, slots }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the arena holds no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total backing size in floats (including alignment padding).
    pub fn capacity_floats(&self) -> usize {
        self.storage.len() * LINE_FLOATS
    }

    /// A zeroed-at-allocation [`AudioBuf`] view of `slot`.
    ///
    /// # Safety
    /// The caller must keep this arena alive for the whole lifetime of the
    /// returned view and must not create two views of the same slot that
    /// are accessed concurrently outside the executor's epoch protocol.
    ///
    /// # Panics
    /// Panics when `slot` is out of range.
    pub unsafe fn view(&self, slot: usize) -> AudioBuf {
        let s = self.slots[slot];
        let base = self.storage.as_ptr() as *mut f32;
        // SAFETY: `offset` stays within the storage block by construction.
        let ptr = unsafe { base.add(s.offset) };
        unsafe { AudioBuf::from_raw_view(ptr, s.channels, s.frames) }
    }
}

impl core::fmt::Debug for BufferArena {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BufferArena")
            .field("slots", &self.slots.len())
            .field("capacity_floats", &self.capacity_floats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_cache_aligned_and_disjoint() {
        let arena = BufferArena::new(&[(2, 128), (1, 7), (2, 33)]);
        assert_eq!(arena.len(), 3);
        let views: Vec<AudioBuf> = (0..3).map(|i| unsafe { arena.view(i) }).collect();
        for (i, v) in views.iter().enumerate() {
            assert!(v.is_view());
            assert_eq!(
                (v.channels(), v.frames()),
                (arena.slots[i].channels, arena.slots[i].frames),
                "slot {i} layout"
            );
            assert_eq!(v.samples().as_ptr() as usize % 64, 0, "slot {i} alignment");
            assert!(v.samples().iter().all(|&s| s == 0.0), "slot {i} zeroed");
        }
    }

    #[test]
    fn writes_stay_inside_their_slot() {
        let arena = BufferArena::new(&[(1, 16), (1, 16)]);
        let mut a = unsafe { arena.view(0) };
        let b = unsafe { arena.view(1) };
        a.samples_mut().fill(1.0);
        assert!(b.samples().iter().all(|&s| s == 0.0));
        assert_eq!(a.rms(), 1.0);
    }

    #[test]
    fn odd_sizes_round_up_to_lines() {
        let arena = BufferArena::new(&[(1, 1), (2, 3)]);
        assert_eq!(arena.capacity_floats(), 32);
        let v = unsafe { arena.view(1) };
        assert_eq!(v.samples().as_ptr() as usize % 64, 0);
    }
}
