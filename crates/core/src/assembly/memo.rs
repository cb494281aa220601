//! The class table of class-first assembly: congruent element pairs are
//! one class, and each class is integrated once per band.
//!
//! [`pair_block`](super::pair_block) computes every block in the pair's
//! own horizontal frame, so a block is a pure function of the bits of
//! (shape of β, shape of α, `Δxy = β.a − α.a`), an element's *shape*
//! being the bits of `(b − a)ₓ`, `(b − a)ᵧ`, `a_z`, `b_z` and its radius.
//! A layered soil's image series does not change under a horizontal
//! translation, and a grid repeats the same few element shapes at the
//! same few offsets: on the paper's Barberá grid 28 588 distinct keys
//! cover 83 436 pairs, on Balaidos 5 055 cover 29 161.
//!
//! [`PairShapes`] interns each element's shape once per pair set.
//! [`ClassTable`] gives each pair of a band the id of its key's class, in
//! first-seen order, up to a fixed budget of classes. A class is stored as
//! its first pair (the representative), the block and the block's
//! [`KernelCost`]; the index holds class ids only, and a lookup compares
//! the key recomputed from the representative. Keys are compared whole —
//! the hash only picks where the probe starts — so a class's block is
//! exactly the bits the kernel returns for any of its pairs, and matrices,
//! column profiles and kernel costs stay bit-identical to the double loop
//! at every schedule, thread count and budget.

use std::collections::HashMap;

use super::Block;
use crate::integration::ElementGeom;
use crate::kernel::KernelCost;

/// Class id of a free index slot; real ids stay below the budget.
const EMPTY: u16 = u16::MAX;

/// Pairs one band holds at most: its class ids take 2 B each, so a band
/// of a grid whose pairs repeat few classes stays within 128 KB.
const BAND_PAIRS: usize = 1 << 16;

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
    /// splitmix64's finalizer over every word, so the zero low mantissa
    /// bits of integer coordinates are mixed.
    fn hash(&self) -> u64 {
        let shapes = u64::from(self.beta) << 32 | u64::from(self.alpha);
        mix(mix(mix(shapes) ^ self.dx) ^ self.dy)
    }
}

/// The splitmix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A block's [`KernelCost`] in 32-bit counters, which keep a class at
/// 56 B: one pair's counts are bounded by its ≤ 32 points × the series'
/// group cap × a group's images, three orders of magnitude below
/// `u32::MAX`.
#[derive(Clone, Copy, Debug, Default)]
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

/// One class: its representative pair, and — once integrated — the
/// block and the cost the kernel returned for it.
#[derive(Clone, Copy, Debug)]
pub(super) struct Class {
    beta: u32,
    alpha: u32,
    block: Block,
    cost: StoredCost,
}

impl Class {
    /// The representative pair `(β, α)`.
    pub(super) fn pair(&self) -> (usize, usize) {
        (self.beta as usize, self.alpha as usize)
    }

    /// Stores what the kernel returned for the representative.
    pub(super) fn set(&mut self, block: Block, cost: &KernelCost) {
        self.block = block;
        self.cost = StoredCost::pack(cost);
    }

    /// The class's block and its cost.
    pub(super) fn get(&self) -> (&Block, KernelCost) {
        (&self.block, self.cost.unpack())
    }
}

/// Each element's key half: its interned shape id and its first node in
/// x and y, packed so a key reads 24 B per element instead of a whole
/// geometry.
pub(super) struct PairShapes {
    anchors: Vec<(u32, [f64; 2])>,
}

impl PairShapes {
    /// Interns the shapes of `geoms` (one pass, once per pair set).
    pub(super) fn new(geoms: &[ElementGeom]) -> Self {
        let mut ids: HashMap<[u64; 5], u32> = HashMap::new();
        let anchors = geoms
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
                (*ids.entry(bits).or_insert(next), [g.a.x, g.a.y])
            })
            .collect();
        PairShapes { anchors }
    }

    fn key(&self, beta: usize, alpha: usize) -> PairKey {
        let (b, a) = (&self.anchors[beta], &self.anchors[alpha]);
        PairKey {
            beta: b.0,
            alpha: a.0,
            dx: (b.1[0] - a.1[0]).to_bits(),
            dy: (b.1[1] - a.1[1]).to_bits(),
        }
    }
}

/// One band's classes, at most `budget` of them, and its pairs' class
/// ids, at most [`BAND_PAIRS`] of them: the classes in first-seen order,
/// behind an open-addressing index of `u16` class ids at most half full.
/// 56 B a class plus two 2-byte index slots, and 2 B a pair.
pub(crate) struct ClassTable {
    classes: Vec<Class>,
    index: Vec<u16>,
    /// The class id of each pair of the band, in pair order.
    ids: Vec<u16>,
    budget: usize,
}

impl ClassTable {
    /// A table of at most `budget` classes (≥ 1, below `u16::MAX`).
    /// Nothing is allocated before the first band.
    pub(crate) fn with_budget(budget: usize) -> Self {
        assert!(
            (1..usize::from(EMPTY)).contains(&budget),
            "a band holds 1 to 65 534 classes"
        );
        ClassTable {
            classes: Vec::new(),
            index: Vec::new(),
            ids: Vec::new(),
            budget,
        }
    }

    /// Empties the table for a band of at most `pairs` pairs, sizing it
    /// for the classes that band can have.
    pub(super) fn reset(&mut self, pairs: usize) {
        let cap = self.budget.min(pairs.max(1));
        self.classes.clear();
        self.classes.reserve_exact(cap);
        let slots = (2 * cap).next_power_of_two();
        self.index.clear();
        self.index.resize(slots, EMPTY);
        self.ids.clear();
        self.ids.reserve_exact(BAND_PAIRS.min(pairs));
    }

    /// The number of classes the band holds.
    pub(super) fn len(&self) -> usize {
        self.classes.len()
    }

    /// The number of pairs the band holds.
    pub(super) fn pairs(&self) -> usize {
        self.ids.len()
    }

    /// The band's classes, in first-seen order.
    pub(super) fn classes_mut(&mut self) -> &mut [Class] {
        &mut self.classes
    }

    /// Appends pair `(beta, alpha)` to the band with its class, adding a
    /// class with the pair as representative when the key is new. `false`
    /// when the band is full — its pairs, or a new key with its classes —
    /// and the pair belongs to the next band.
    pub(super) fn intern(&mut self, shapes: &PairShapes, beta: usize, alpha: usize) -> bool {
        if self.ids.len() == BAND_PAIRS {
            return false;
        }
        let id = match self.probe(shapes, beta, alpha) {
            Ok(id) => id,
            Err(_) if self.classes.len() == self.budget => return false,
            Err(slot) => {
                let id = self.classes.len() as u16;
                self.index[slot] = id;
                self.classes.push(Class {
                    beta: beta as u32,
                    alpha: alpha as u32,
                    block: [[0.0; 2]; 2],
                    cost: StoredCost::default(),
                });
                id
            }
        };
        self.ids.push(id);
        true
    }

    /// The class of each pair of the band, in pair order.
    pub(super) fn band(&self) -> impl Iterator<Item = &Class> {
        self.ids.iter().map(|&id| &self.classes[usize::from(id)])
    }

    /// `Ok(id)` of the pair's class, or `Err(slot)`, the free slot where
    /// its key would go.
    fn probe(&self, shapes: &PairShapes, beta: usize, alpha: usize) -> Result<u16, usize> {
        let key = shapes.key(beta, alpha);
        let mask = self.index.len() - 1;
        let mut slot = key.hash() as usize & mask;
        loop {
            let id = self.index[slot];
            if id == EMPTY {
                return Err(slot);
            }
            let rep = &self.classes[id as usize];
            if shapes.key(rep.beta as usize, rep.alpha as usize) == key {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_class_is_56_bytes() {
        assert_eq!(std::mem::size_of::<Class>(), 56);
    }

    #[test]
    fn integer_offsets_spread_over_the_sets() {
        // Offsets on a whole-metre lattice share their low mantissa bits;
        // the finalizer must still start probes all over a 512-slot index.
        const SLOTS: usize = 512;
        let mask = SLOTS as u64 - 1;
        let mut used = vec![false; SLOTS];
        for i in 0..64 {
            for j in 0..64 {
                let key = PairKey {
                    beta: 0,
                    alpha: 1,
                    dx: f64::from(i).to_bits(),
                    dy: f64::from(j).to_bits(),
                };
                used[(key.hash() & mask) as usize] = true;
            }
        }
        let filled = used.iter().filter(|&&u| u).count();
        assert!(filled > SLOTS * 9 / 10, "{filled} of {SLOTS} slots used");
    }
}
