//! Shared `u32`-indexed slice arenas for interning small per-flow tables.
//!
//! The unfolded event engine launches the same collective plan thousands of
//! times per run; every launched flow used to carry its own copy of its
//! route (links, bandwidths, multiplicities) and charge list. Interning
//! those slices into one flat arena turns a flow launch into a few index
//! writes: the flow stores a [`SliceRef`] — a `(offset, len)` pair into the
//! arena — instead of an inline array. Identical slices (and every replica
//! of a data-parallel plan produces many) dedup to the same storage, so the
//! hot rate loop walks one shared, cache-resident table.
//!
//! The arena is append-only: a [`SliceRef`] handed out once stays valid for
//! the arena's lifetime, so a flow can keep its `(offset, len)` pair for as
//! long as the simulator runs.

use std::collections::HashMap;

/// An element that can live in a [`SliceArena`].
///
/// `key_bits` feeds the dedup hash; `same` is the authoritative equality
/// used to confirm a candidate match (hash collisions fall back to it).
/// Floating-point fields should compare by bit pattern so that interning
/// never conflates two slices the simulator would treat differently.
pub trait ArenaItem: Copy {
    /// A 64-bit fingerprint of this element's identity.
    fn key_bits(&self) -> u64;
    /// Exact (bit-level for floats) equality.
    fn same(&self, other: &Self) -> bool;
}

/// A `(offset, len)` handle into a [`SliceArena`]. 8 bytes, `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SliceRef {
    off: u32,
    len: u32,
}

impl SliceRef {
    /// Offset of the first element in the arena.
    #[inline]
    pub fn off(self) -> u32 {
        self.off
    }

    /// Number of elements.
    #[inline]
    pub fn len(self) -> u32 {
        self.len
    }

    /// True when the slice is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Element indices covered by this ref, for indexed iteration that
    /// avoids borrowing the arena across a mutation.
    #[inline]
    pub fn indices(self) -> std::ops::Range<u32> {
        self.off..self.off + self.len
    }
}

fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer — cheap and well distributed.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn slice_hash<T: ArenaItem>(items: &[T]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ (items.len() as u64);
    for it in items {
        h = mix64(h ^ it.key_bits());
    }
    h
}

/// A deduplicating, append-only arena of `T` slices.
#[derive(Debug, Default)]
pub struct SliceArena<T: ArenaItem> {
    data: Vec<T>,
    index: HashMap<u64, Vec<SliceRef>>,
}

impl<T: ArenaItem> SliceArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        SliceArena {
            data: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Intern `items`, returning a handle to the canonical copy. Re-interning
    /// an identical slice returns the existing handle without growing the
    /// arena.
    pub fn intern(&mut self, items: &[T]) -> SliceRef {
        let h = slice_hash(items);
        let bucket = self.index.entry(h).or_default();
        for &r in bucket.iter() {
            let existing = &self.data[r.off as usize..(r.off + r.len) as usize];
            if existing.len() == items.len() && existing.iter().zip(items).all(|(a, b)| a.same(b)) {
                return r;
            }
        }
        let off = u32::try_from(self.data.len()).expect("slice arena exceeds u32 index space");
        let len = u32::try_from(items.len()).expect("interned slice exceeds u32 length");
        self.data.extend_from_slice(items);
        let r = SliceRef { off, len };
        bucket.push(r);
        r
    }

    /// The canonical slice behind `r`.
    #[inline]
    pub fn get(&self, r: SliceRef) -> &[T] {
        &self.data[r.off as usize..(r.off + r.len) as usize]
    }

    /// Single element by arena index (see [`SliceRef::indices`]).
    #[inline]
    pub fn item(&self, i: u32) -> T {
        self.data[i as usize]
    }

    /// Total elements stored (after dedup).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Hop {
        link: u32,
        bw: f64,
    }

    impl ArenaItem for Hop {
        fn key_bits(&self) -> u64 {
            (self.link as u64) ^ self.bw.to_bits().rotate_left(17)
        }
        fn same(&self, other: &Self) -> bool {
            self.link == other.link && self.bw.to_bits() == other.bw.to_bits()
        }
    }

    #[test]
    fn identical_slices_dedup_to_one_ref() {
        let mut a = SliceArena::new();
        let s = [Hop { link: 3, bw: 25e9 }, Hop { link: 7, bw: 50e9 }];
        let r1 = a.intern(&s);
        let r2 = a.intern(&s);
        assert_eq!(r1, r2);
        assert_eq!(a.len(), 2, "the second intern stores nothing");
        assert_eq!(a.get(r1), &s);
    }

    #[test]
    fn distinct_slices_get_distinct_storage() {
        let mut a = SliceArena::new();
        let r1 = a.intern(&[Hop { link: 1, bw: 1.0 }]);
        let r2 = a.intern(&[Hop { link: 2, bw: 1.0 }]);
        let r3 = a.intern(&[Hop { link: 1, bw: 2.0 }]);
        assert_ne!(r1, r2);
        assert_ne!(r1, r3);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn float_identity_is_bitwise() {
        let mut a = SliceArena::new();
        let r1 = a.intern(&[Hop { link: 1, bw: 0.0 }]);
        let r2 = a.intern(&[Hop { link: 1, bw: -0.0 }]);
        assert_ne!(r1, r2, "0.0 and -0.0 must not be conflated");
    }

    #[test]
    fn refs_stay_valid_as_arena_grows() {
        let mut a = SliceArena::new();
        let first = a.intern(&[Hop { link: 0, bw: 9.0 }]);
        for i in 1..1000u32 {
            a.intern(&[Hop {
                link: i,
                bw: f64::from(i),
            }]);
        }
        assert_eq!(a.get(first), &[Hop { link: 0, bw: 9.0 }]);
        for i in first.indices() {
            assert_eq!(a.item(i).link, 0);
        }
    }

    #[test]
    fn empty_slice_interns_cleanly() {
        let mut a = SliceArena::<Hop>::new();
        let r = a.intern(&[]);
        assert!(r.is_empty());
        assert_eq!(a.get(r), &[] as &[Hop]);
    }
}
