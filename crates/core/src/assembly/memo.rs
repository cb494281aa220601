//! The class store of class-first assembly: congruent element pairs are
//! one class, and each class is integrated once per pair set while the
//! store holds it.
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
//! [`ClassStore`] is opened once per pair set and kept across its bands:
//! it gives each pair of a band the id of its key's class, storing a new
//! class only when the key is not stored, and evicts the class the pair
//! order used least recently within the key's set — never one the current
//! band still has to scatter. A class is stored as its first pair (the
//! representative), the block and the block's [`KernelCost`]; a lookup
//! compares the key recomputed from the representative. Keys are compared
//! whole — the hash only picks the set and a tag — so a class's block is
//! exactly the bits the kernel returns for any of its pairs, and
//! matrices, column profiles and kernel costs stay bit-identical to the
//! double loop at every schedule, thread count, capacity and eviction.

use std::collections::HashMap;

use super::Block;
use crate::integration::ElementGeom;
use crate::kernel::KernelCost;

/// Pairs one band holds at most: its class ids take 4 B each, 256 KB.
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
/// 56 B with its representative: one pair's counts are bounded by its ≤ 32 points × the series'
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

/// What the kernel returned for one class's representative pair (which
/// its way in the store's set records): the block and its cost.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct Class {
    block: Block,
    cost: StoredCost,
}

impl Class {
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

/// Ways of one set of the store: a key may live in any of its set's
/// ways, and a lookup reads the set's 64 bytes of tags and stamps.
const WAYS: usize = 8;

/// The stamp of a way a store of fewer than [`WAYS`] classes does not
/// have: never a victim, since no pair set reaches it (see
/// [`ClassStore::begin_band`]).
const ABSENT: u32 = u32::MAX;

/// Fewest and most classes a production store holds: ≈ 0.25 MB and
/// ≈ 1 MB at 64 B a class. The floor keeps the paper grids' pair sets
/// (≤ 131 072 pairs) at the footprint of the per-band table the store
/// replaced, ≈ 0.5 MB with a band's class ids. The ceiling serves
/// refined Barberá's 318 801 pairs, which integrate 48.2 % of their
/// pairs at 16 384 classes and 58.1 % at 8 192; it costs `cold-dense`
/// (two one-thread lanes) 2–2.6 MB of median peak RSS, and a larger
/// store would cost more.
const MIN_CLASSES: usize = 4096;
const MAX_CLASSES: usize = 16_384;

/// The classes a production store holds for a pair set of `pairs` pairs:
/// one class per 32 pairs, rounded up to a power of two and kept within
/// [`MIN_CLASSES`]..=[`MAX_CLASSES`], and never more than the pair set
/// can have.
fn capacity_for(pairs: usize) -> usize {
    (pairs / 32)
        .next_power_of_two()
        .clamp(MIN_CLASSES, MAX_CLASSES)
        .min(pairs.next_power_of_two().max(WAYS))
}

/// One set of the store, per way:
/// - its class key's tag: the upper 32 bits of the key's hash with the
///   lowest bit set, or 0 for a way that holds no class, so that no tag
///   matches it;
/// - its pair-order stamp: 0 for an empty way, [`ABSENT`] for a way the
///   store does not have, else one plus the position in the pair set of
///   the last pair that used its class;
/// - its class's representative pair `(β, α)`, which a lookup reads only
///   on a tag match.
///
/// Not aligned to cache lines: the over-aligned allocation read ≈ 0.6 MB
/// more peak RSS on `cold-dense`'s two lanes, for no measured intern
/// gain.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C)]
struct Set {
    tags: [u32; WAYS],
    stamps: [u32; WAYS],
    reps: [[u32; 2]; WAYS],
}

/// The class store of one pair set: every class integrated for it, up to
/// a capacity, kept across the pair set's bands so that a class met
/// again in a later band reuses its block.
///
/// `WAYS`-way set-associative: a key's hash picks its set, and its class
/// lives in one of that set's ways. A new key takes its set's empty way,
/// or the way whose class the pair order used least recently — unless
/// the current band used it, in which case the band closes instead, so
/// every class a band scatters is still stored when it does. Interning
/// is serial and the stamps count pairs, so which classes are evicted —
/// and how many classes are integrated — depends on the pair set alone,
/// not on threads or schedule. 64 B a class (16 B in its set, 48 B of
/// block and cost), plus 4 B per pair of the band.
pub(crate) struct ClassStore {
    /// Classes for every pair set, or sized from each pair set when
    /// `None` ([`capacity_for`]).
    fixed: Option<usize>,
    sets: Vec<Set>,
    /// The class of every way, set by set.
    classes: Vec<Class>,
    /// Pairs of the pair set interned so far: the last stamp given.
    clock: u32,
    /// The stamp of the current band's first pair.
    band_first: u32,
    /// The way of each pair of the band, in pair order.
    ids: Vec<u32>,
    /// The ways of the band's new classes, to integrate.
    fresh: Vec<u32>,
}

impl Default for ClassStore {
    /// The production store: sized from each pair set it serves.
    fn default() -> Self {
        ClassStore::sized(None)
    }
}

impl ClassStore {
    /// A store of `classes` classes (a power of two) for every pair set:
    /// the tests run the engines on a one-class store, which evicts on
    /// every new key. Nothing is allocated before the first pair set.
    #[cfg(test)]
    pub(crate) fn with_capacity(classes: usize) -> Self {
        assert!(classes.is_power_of_two(), "a power-of-two capacity");
        ClassStore::sized(Some(classes))
    }

    fn sized(fixed: Option<usize>) -> Self {
        ClassStore {
            fixed,
            sets: Vec::new(),
            classes: Vec::new(),
            clock: 0,
            band_first: 0,
            ids: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// Empties the store for a pair set of `pairs` pairs, sized for it.
    pub(super) fn open(&mut self, pairs: usize) {
        let capacity = self.fixed.unwrap_or_else(|| capacity_for(pairs));
        let sets = (capacity / WAYS).max(1);
        let mut set = Set::default();
        // A store of fewer classes than a set has ways has one set, whose
        // missing ways are never empty and never the least recent.
        set.stamps[capacity.min(WAYS)..].fill(ABSENT);
        self.sets.clear();
        self.sets.resize(sets, set);
        self.classes.clear();
        self.classes.resize(sets * WAYS, Class::default());
        self.clock = 0;
        self.ids = Vec::with_capacity(BAND_PAIRS.min(pairs));
        self.fresh.clear();
    }

    /// Starts the next band of the pair set.
    ///
    /// A stamp is one plus a pair's position in the pair set, so it
    /// stays below [`ABSENT`] while a pair set holds fewer than
    /// `u32::MAX − BAND_PAIRS` pairs: a dense triangle that long has over
    /// 92 000 elements and a packed matrix of over 34 GB. The check runs
    /// once a band, before any of the band's stamps is given.
    pub(super) fn begin_band(&mut self) {
        assert!(
            self.clock < ABSENT - BAND_PAIRS as u32,
            "a pair set holds fewer than 2³² − 2¹⁶ − 1 pairs"
        );
        self.band_first = self.clock + 1;
        self.ids.clear();
        self.fresh.clear();
    }

    /// The number of pairs the band holds.
    pub(super) fn pairs(&self) -> usize {
        self.ids.len()
    }

    /// Appends pair `(beta, alpha)` to the band with its class, storing a
    /// new class with the pair as representative when the key is not
    /// stored. `false` when the band is full — its pairs, or a new key
    /// whose set holds only classes the band uses — and the pair belongs
    /// to the next band.
    pub(super) fn intern(&mut self, shapes: &PairShapes, beta: usize, alpha: usize) -> bool {
        if self.ids.len() == BAND_PAIRS {
            return false;
        }
        let key = shapes.key(beta, alpha);
        let hash = key.hash();
        let s = hash as usize & (self.sets.len() - 1);
        let tag = (hash >> 32) as u32 | 1;
        let stamp = self.clock + 1;
        let set = &mut self.sets[s];
        // Branch-free over the set's first line; the key is compared whole
        // only on a tag match.
        let mut matches = 0u32;
        for w in 0..WAYS {
            matches |= u32::from(set.tags[w] == tag) << w;
        }
        while matches != 0 {
            let w = matches.trailing_zeros() as usize;
            let [b, a] = set.reps[w];
            if shapes.key(b as usize, a as usize) == key {
                set.stamps[w] = stamp;
                self.ids.push((s * WAYS + w) as u32);
                self.clock = stamp;
                return true;
            }
            matches &= matches - 1;
        }
        // The first least recent way (an empty one before any other) takes
        // the key, unless the band still has to scatter every class of
        // the set.
        let oldest = *set.stamps.iter().min().expect("a set has ways");
        if oldest >= self.band_first {
            return false;
        }
        let mut eq = 0u32;
        for w in 0..WAYS {
            eq |= u32::from(set.stamps[w] == oldest) << w;
        }
        let w = eq.trailing_zeros() as usize;
        set.tags[w] = tag;
        set.stamps[w] = stamp;
        set.reps[w] = [beta as u32, alpha as u32];
        let id = (s * WAYS + w) as u32;
        self.fresh.push(id);
        self.ids.push(id);
        self.clock = stamp;
        true
    }

    /// The number of new classes the band holds.
    pub(super) fn fresh(&self) -> usize {
        self.fresh.len()
    }

    /// The band's new classes in chunks of at most `size`, each borrowing
    /// its own range of the store: the tasks of the band's integrate
    /// phase. The new ways are sorted, so the ranges are disjoint.
    pub(super) fn fresh_chunks(&mut self, size: usize) -> Vec<FreshChunk<'_>> {
        self.fresh.sort_unstable();
        let mut out = Vec::with_capacity(self.fresh.len().div_ceil(size));
        let mut rest: &mut [Class] = &mut self.classes;
        let mut base = 0;
        for ids in self.fresh.chunks(size) {
            let end = *ids.last().expect("chunks are not empty") as usize + 1;
            let (classes, tail) = std::mem::take(&mut rest).split_at_mut(end - base);
            out.push(FreshChunk {
                ids,
                classes,
                base,
                sets: &self.sets,
            });
            rest = tail;
            base = end;
        }
        out
    }

    /// The class of each pair of the band, in pair order.
    pub(super) fn band(&self) -> impl Iterator<Item = &Class> {
        self.ids.iter().map(|&id| &self.classes[id as usize])
    }
}

/// Some of a band's new classes, with the range of the store that holds
/// them.
pub(super) struct FreshChunk<'s> {
    /// The classes' ways, ascending, all in `base..base + classes.len()`.
    ids: &'s [u32],
    classes: &'s mut [Class],
    base: usize,
    sets: &'s [Set],
}

impl FreshChunk<'_> {
    /// Stores `integrate(β, α)` — the block and cost the kernel returns
    /// for a class's representative pair `(β, α)` — in each class.
    pub(super) fn fill(&mut self, mut integrate: impl FnMut(usize, usize) -> (Block, KernelCost)) {
        for &id in self.ids {
            let id = id as usize;
            let [beta, alpha] = self.sets[id / WAYS].reps[id % WAYS];
            let (block, cost) = integrate(beta as usize, alpha as usize);
            let class = &mut self.classes[id - self.base];
            class.block = block;
            class.cost = StoredCost::pack(&cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_class_is_56_bytes() {
        // Its block and cost, plus its representative in its set: with
        // its tag and stamp, 64 B a class.
        assert_eq!(std::mem::size_of::<Class>() + 8, 56);
        assert_eq!(std::mem::size_of::<Set>(), WAYS * 16);
    }

    #[test]
    fn the_capacity_follows_the_pair_set() {
        // The paper grids' pair sets keep the floor, refined Barberá and
        // anything larger the ceiling; a small pair set gets no more
        // classes than it has pairs.
        for (pairs, classes) in [
            (1, 8),
            (100, 128),
            (29_161, 4096),
            (83_436, 4096),
            (131_328, 8192),
            (318_801, 16_384),
            (2_866_815, 16_384),
        ] {
            assert_eq!(capacity_for(pairs), classes, "{pairs} pairs");
        }
    }

    /// A store over one vertical rod's `n` elements (one shape, so
    /// element pairs `(0, a)` are `n` distinct keys).
    fn rod_shapes(n: usize) -> PairShapes {
        let geoms: Vec<ElementGeom> = (0..n)
            .map(|i| {
                let z = 0.5 + i as f64;
                ElementGeom::new(
                    layerbem_geometry::Point3::new(0.0, 0.0, z),
                    layerbem_geometry::Point3::new(0.0, 0.0, z + 1.0),
                    0.007,
                )
            })
            .collect();
        PairShapes::new(&geoms)
    }

    #[test]
    fn a_band_never_evicts_a_class_it_scatters() {
        // One set of eight ways: the ninth key of a band closes it, and
        // the next band evicts the least recently used class first.
        let shapes = rod_shapes(10);
        let mut store = ClassStore::with_capacity(8);
        store.open(100);
        store.begin_band();
        for a in 0..8 {
            assert!(store.intern(&shapes, 0, a));
        }
        assert!(store.intern(&shapes, 0, 3), "a stored key hits");
        assert!(!store.intern(&shapes, 0, 8), "a ninth key closes the band");
        assert_eq!((store.pairs(), store.fresh()), (9, 8));
        store.begin_band();
        assert!(store.intern(&shapes, 0, 8));
        // Way 0 held (0, 0), the least recent class, and now holds (0, 8).
        assert_eq!(store.ids, [0]);
        assert_eq!(store.sets[0].reps[0], [0, 8]);
        assert!(store.intern(&shapes, 0, 3), "(0, 3) was used last");
        assert_eq!(store.fresh, [0]);
    }

    #[test]
    fn stamps_stay_below_the_absent_mark() {
        // The last band a pair set may start stamps its pairs up to
        // `ABSENT − 1`: even then an absent way is never a victim, and the
        // next band refuses to start rather than wrap.
        let shapes = rod_shapes(2);
        let mut store = ClassStore::with_capacity(1);
        store.open(BAND_PAIRS);
        store.clock = ABSENT - BAND_PAIRS as u32 - 1;
        store.begin_band();
        for _ in 0..BAND_PAIRS {
            assert!(store.intern(&shapes, 0, 1));
        }
        assert_eq!(store.clock, ABSENT - 1);
        assert_eq!(store.sets[0].stamps[1..], [ABSENT; WAYS - 1]);
        assert!(std::panic::catch_unwind(move || store.begin_band()).is_err());
    }

    #[test]
    fn integer_offsets_spread_over_the_sets() {
        // Offsets on a whole-metre lattice share their low mantissa bits;
        // the finalizer must still spread them over 512 sets.
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
