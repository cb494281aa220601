//! The pair-block memo of the worklist engines: congruent element pairs
//! are integrated once per partition.
//!
//! [`pair_block`] computes every block in the pair's own horizontal
//! frame, so a block is a pure function of the bits of (shape of β,
//! shape of α, `Δxy = β.a − α.a`), an element's *shape* being the bits of
//! `(b − a)ₓ`, `(b − a)ᵧ`, `a_z`, `b_z` and its radius. A layered soil's
//! image series does not change under a horizontal translation, and a
//! grid repeats the same few element shapes at the same few offsets: on
//! the paper's Barberá grid 28 588 distinct keys cover 83 436 pairs, on
//! Balaidos 5 055 cover 29 161.
//!
//! [`PairShapes`] interns each element's shape once per assembly and is
//! shared read-only by the partitions; each partition body owns one
//! [`PairMemo`], a bounded set-associative table that returns a stored
//! block — and its stored [`KernelCost`] — for a key it has seen. Keys
//! are compared whole; the hash only picks the set. A hit therefore
//! returns exactly the bits the kernel would have computed, so matrices,
//! column profiles and kernel costs stay bit-identical to the double loop
//! at every schedule, thread count and table size.

use std::collections::HashMap;

use super::{pair_block, Block, OuterQuadrature};
use crate::integration::ElementGeom;
use crate::kernel::{KernelBatch, KernelCost, SoilKernel};

/// Sets of the production table (a power of two).
const SETS: usize = 512;
/// Entries per set, kept in least-recently-used order.
const WAYS: usize = 4;

/// Interned shape id of an empty slot; real ids start at 0 and stay
/// below the element count.
const EMPTY: u32 = u32::MAX;

/// The exact identity of a pair block: both shape ids and the bits of
/// the horizontal offset between the elements' first nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PairKey {
    beta: u32,
    alpha: u32,
    dx: u64,
    dy: u64,
}

impl PairKey {
    const EMPTY: PairKey = PairKey {
        beta: EMPTY,
        alpha: EMPTY,
        dx: 0,
        dy: 0,
    };

    /// The set this key lives in: splitmix64's finalizer over every word,
    /// so the zero low mantissa bits of integer coordinates are mixed.
    fn set(&self, mask: u64) -> usize {
        let shapes = u64::from(self.beta) << 32 | u64::from(self.alpha);
        (mix(mix(mix(shapes) ^ self.dx) ^ self.dy) & mask) as usize
    }
}

/// The splitmix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A block's [`KernelCost`] in 32-bit counters, which keep an entry at
/// 72 B: one pair's counts are bounded by its ≤ 32 points × the series'
/// group cap × a group's images, three orders of magnitude below
/// `u32::MAX`.
#[derive(Clone, Copy, Debug)]
struct StoredCost([u32; 4]);

impl StoredCost {
    fn pack(c: &KernelCost) -> StoredCost {
        let narrow = |v: u64| u32::try_from(v).expect("one pair's counts fit 32 bits");
        StoredCost([
            narrow(c.terms),
            narrow(c.lane_points),
            narrow(c.lane_slots),
            narrow(c.capped_series),
        ])
    }

    fn unpack(self) -> KernelCost {
        let [terms, lane_points, lane_slots, capped_series] = self.0.map(u64::from);
        KernelCost {
            terms,
            lane_points,
            lane_slots,
            capped_series,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    key: PairKey,
    block: Block,
    cost: StoredCost,
}

/// What every partition of one assembly shares: the element geometries,
/// the kernel, the outer rule and each element's interned shape id.
pub(super) struct PairShapes<'a> {
    geoms: &'a [ElementGeom],
    kernel: &'a SoilKernel,
    quad: &'a OuterQuadrature,
    shape: Vec<u32>,
}

impl<'a> PairShapes<'a> {
    /// Interns the shapes of `geoms` (one pass, once per assembly).
    pub(super) fn new(
        geoms: &'a [ElementGeom],
        kernel: &'a SoilKernel,
        quad: &'a OuterQuadrature,
    ) -> Self {
        let mut ids: HashMap<[u64; 5], u32> = HashMap::new();
        let shape = geoms
            .iter()
            .map(|g| {
                let bits = [
                    (g.b.x - g.a.x).to_bits(),
                    (g.b.y - g.a.y).to_bits(),
                    g.a.z.to_bits(),
                    g.b.z.to_bits(),
                    g.radius.to_bits(),
                ];
                let next = u32::try_from(ids.len()).expect("element count fits u32");
                *ids.entry(bits).or_insert(next)
            })
            .collect();
        PairShapes {
            geoms,
            kernel,
            quad,
            shape,
        }
    }

    fn key(&self, beta: usize, alpha: usize) -> PairKey {
        let (b, a) = (&self.geoms[beta], &self.geoms[alpha]);
        PairKey {
            beta: self.shape[beta],
            alpha: self.shape[alpha],
            dx: (b.a.x - a.a.x).to_bits(),
            dy: (b.a.y - a.a.y).to_bits(),
        }
    }
}

/// One partition's bounded table of pair blocks: `sets × ways` entries,
/// each set in most- to least-recently-used order.
pub(super) struct PairMemo {
    entries: Vec<Entry>,
    ways: usize,
    mask: u64,
}

impl PairMemo {
    /// The production table: 512 sets of 4 ways, 72 B an entry
    /// (≈ 144 KB). Every thread that has assembled keeps about one table
    /// of freed heap resident; 4 096 entries would run the kernel for
    /// 41.6 % of Barberá's pairs instead of 51.1 %, at twice that cost.
    pub(super) fn new() -> Self {
        PairMemo::with_geometry(SETS, WAYS)
    }

    /// A table of `sets` (a power of two) × `ways` entries.
    pub(crate) fn with_geometry(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two() && ways > 0, "bad memo geometry");
        let empty = Entry {
            key: PairKey::EMPTY,
            block: [[0.0; 2]; 2],
            cost: StoredCost([0; 4]),
        };
        PairMemo {
            entries: vec![empty; sets * ways],
            ways,
            mask: sets as u64 - 1,
        }
    }

    /// The block of pair `(beta, alpha)` and its cost: the stored one on
    /// a hit, otherwise [`pair_block`]'s, which is then stored in place of
    /// the set's least recently used entry. The flag is `true` when the
    /// kernel ran.
    pub(super) fn block(
        &mut self,
        shapes: &PairShapes,
        beta: usize,
        alpha: usize,
        batch: &mut KernelBatch,
    ) -> (Block, KernelCost, bool) {
        let key = shapes.key(beta, alpha);
        let start = key.set(self.mask) * self.ways;
        let set = &mut self.entries[start..start + self.ways];
        if let Some(way) = set.iter().position(|e| e.key == key) {
            set[..=way].rotate_right(1);
            return (set[0].block, set[0].cost.unpack(), false);
        }
        let (block, cost) = pair_block(
            &shapes.geoms[beta],
            &shapes.geoms[alpha],
            shapes.kernel,
            shapes.quad,
            batch,
        );
        set.rotate_right(1);
        set[0] = Entry {
            key,
            block,
            cost: StoredCost::pack(&cost),
        };
        (block, cost, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_entry_is_72_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 72);
    }

    #[test]
    fn integer_offsets_spread_over_the_sets() {
        // Offsets on a whole-metre lattice share their low mantissa bits;
        // the finalizer must still use every set.
        let mask = SETS as u64 - 1;
        let mut used = vec![false; SETS];
        for i in 0..64 {
            for j in 0..64 {
                let key = PairKey {
                    beta: 0,
                    alpha: 1,
                    dx: f64::from(i).to_bits(),
                    dy: f64::from(j).to_bits(),
                };
                used[key.set(mask)] = true;
            }
        }
        let filled = used.iter().filter(|&&u| u).count();
        assert!(filled > SETS * 9 / 10, "{filled} of {SETS} sets used");
    }
}
