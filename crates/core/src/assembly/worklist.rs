//! Precomputed per-partition pair worklists — the candidate-generation
//! engine of the in-place direct assembler.
//!
//! The zero-staging direct assembler partitions the packed Galerkin
//! triangle into disjoint row ranges and lets each partition accumulate
//! only the element pairs whose target entries it owns. Discovering those
//! pairs by walking the whole `M(M+1)/2` pair triangle *per partition*
//! would be an `O(partitions × M²)` scan whose cost grows with thread
//! count. This module does that work once: one
//! `O(M²)` pass over the triangle (a handful of integer operations per
//! pair, driven by the mesh's [`ElementRowMap`]) assigns every pair to the
//! partitions owning its target rows, in the **sequential pair order**, so
//! each partition later executes exactly its own candidates with no
//! per-pair ownership test — and the floating-point accumulation order per
//! entry is untouched, keeping the assembled matrix bit-identical to the
//! sequential double loop.
//!
//! A pair's target rows are a pure function of its two elements' node
//! indices ([`ElementRowMap::pair_target_rows`], at most 4 distinct rows),
//! so worklists are computed once, before the parallel region, and shared
//! read-only with the pool. Consecutive `α` indices of one column that
//! land in the same partition compress into [`PairRun`]s, keeping the
//! worklist memory `O(runs)` — far below one entry per pair on meshes with
//! any node locality — while iteration still yields pairs one by one in
//! order.

use std::ops::Range;

use layerbem_geometry::ElementRowMap;
use layerbem_parfor::{Schedule, ThreadPool};

/// Sentinel for "row not covered by any partition".
const NO_OWNER: u32 = u32::MAX;

/// A maximal run of consecutive pairs `(beta, alpha)`,
/// `alpha ∈ alpha_start..alpha_end`, owned by one partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairRun {
    /// Outer (column) element index.
    pub beta: u32,
    /// First inner element index of the run.
    pub alpha_start: u32,
    /// One past the last inner element index of the run.
    pub alpha_end: u32,
}

impl PairRun {
    /// The inner element indices of this run.
    #[inline]
    pub fn alphas(&self) -> Range<usize> {
        self.alpha_start as usize..self.alpha_end as usize
    }
}

/// The ordered pair candidates of one row partition: every pair of the
/// triangle with at least one target entry in [`rows`](Self::rows), in the
/// sequential `(β, α)` iteration order, each exactly once.
#[derive(Clone, Debug)]
pub struct PairWorklist {
    /// The matrix row range whose packed entries this partition owns.
    rows: Range<usize>,
    /// Run-length–compressed pair list, sequential order.
    runs: Vec<PairRun>,
    /// Total pairs across all runs.
    pairs: usize,
}

impl PairWorklist {
    fn new(rows: Range<usize>) -> Self {
        PairWorklist {
            rows,
            runs: Vec::new(),
            pairs: 0,
        }
    }

    /// Appends pair `(beta, alpha)`; calls must arrive in ascending
    /// sequential pair order (they do: the build walks the triangle once).
    fn push(&mut self, beta: u32, alpha: u32) {
        self.pairs += 1;
        if let Some(last) = self.runs.last_mut() {
            if last.beta == beta && last.alpha_end == alpha {
                last.alpha_end = alpha + 1;
                return;
            }
        }
        self.runs.push(PairRun {
            beta,
            alpha_start: alpha,
            alpha_end: alpha + 1,
        });
    }

    /// The matrix row range this worklist's partition owns.
    #[inline]
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// The run-length–compressed pair list, in sequential pair order.
    #[inline]
    pub fn runs(&self) -> &[PairRun] {
        &self.runs
    }

    /// Total number of pairs in this worklist.
    #[inline]
    pub fn pair_count(&self) -> usize {
        self.pairs
    }

    /// Iterates the pairs `(β, α)` in sequential order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.runs
            .iter()
            .flat_map(|r| r.alphas().map(move |a| (r.beta as usize, a)))
    }

    /// Whether this partition is charged with pair `(beta, alpha)`'s
    /// accounting (series terms): it owns the pair's highest target row,
    /// which it always computes. Exactly one partition of a gap-free
    /// decomposition answers `true` per pair.
    #[inline]
    pub fn owns_accounting(&self, map: &ElementRowMap, beta: usize, alpha: usize) -> bool {
        self.rows.contains(&map.pair_hi(beta, alpha))
    }
}

/// Builds the per-partition worklists for a row decomposition in one
/// `O(M²)` integer pass over the pair triangle (performed once, not per
/// partition — the whole point of the subsystem).
///
/// `ranges` must be ascending and pairwise disjoint (the
/// [`Schedule::partition_ranges`](layerbem_parfor::Schedule::partition_ranges)
/// contract); rows not covered by any range own nothing, so pairs whose
/// targets all fall in gaps are dropped. A pair whose target rows span
/// several ranges appears in each — the boundary-recompute overlap the
/// direct assembler already documents — but never twice in one worklist.
///
/// # Panics
/// Panics if a range exceeds the map's row count or the mesh is too large
/// for the compressed `u32` indices.
pub fn build_worklists(map: &ElementRowMap, ranges: &[Range<usize>]) -> Vec<PairWorklist> {
    if let [only] = ranges {
        if *only == (0..map.rows()) {
            return vec![whole_triangle(map)];
        }
    }
    let (owner, mut lists) = ownership(map, ranges);
    let m = map.element_count();
    for beta in 0..m {
        for alpha in beta..m {
            assign_pair(map, &owner, &mut lists, beta, alpha);
        }
    }
    lists
}

/// The worklist of one partition owning every row — the one-thread
/// region's: every pair has a target row, so each column `β` is the
/// single run `β..M`, emitted in `O(M)` with no pair walk. Identical to
/// what the general build produces for the same range.
fn whole_triangle(map: &ElementRowMap) -> PairWorklist {
    let m = map.element_count();
    assert!(m < NO_OWNER as usize, "element count exceeds u32 worklists");
    let mut list = PairWorklist::new(0..map.rows());
    list.runs = (0..m as u32)
        .map(|beta| PairRun {
            beta,
            alpha_start: beta,
            alpha_end: m as u32,
        })
        .collect();
    list.pairs = m * (m + 1) / 2;
    list
}

/// Validates `ranges`, materializes the row → partition ownership table and
/// the empty per-partition worklists.
fn ownership(map: &ElementRowMap, ranges: &[Range<usize>]) -> (Vec<u32>, Vec<PairWorklist>) {
    let n = map.rows();
    assert!(
        map.element_count() < NO_OWNER as usize,
        "element count exceeds u32 worklists"
    );
    assert!(
        ranges.len() < NO_OWNER as usize,
        "partition count exceeds u32 worklists"
    );
    let mut owner = vec![NO_OWNER; n];
    for (k, r) in ranges.iter().enumerate() {
        assert!(r.end <= n, "worklist range {r:?} exceeds {n} rows");
        for row in r.clone() {
            debug_assert!(
                owner[row] == NO_OWNER,
                "worklist ranges must be disjoint (row {row})"
            );
            owner[row] = k as u32;
        }
    }
    let lists = ranges
        .iter()
        .map(|r| PairWorklist::new(r.clone()))
        .collect();
    (owner, lists)
}

/// Pushes pair `(beta, alpha)` onto each of the ≤4 distinct partitions
/// owning one of its target rows.
#[inline]
fn assign_pair(
    map: &ElementRowMap,
    owner: &[u32],
    lists: &mut [PairWorklist],
    beta: usize,
    alpha: usize,
) {
    let mut owners = [NO_OWNER; 4];
    let mut count = 0;
    for &row in map.pair_target_rows(beta, alpha).as_slice() {
        let o = owner[row];
        if o != NO_OWNER && !owners[..count].contains(&o) {
            owners[count] = o;
            count += 1;
        }
    }
    for &o in &owners[..count] {
        lists[o as usize].push(beta as u32, alpha as u32);
    }
}

/// Pooled variant of [`build_worklists`]: the `O(M²)` integer pre-pass is
/// column-split over the pool and merged back in order, producing
/// worklists **identical** to the serial build.
///
/// The outer `β` loop is cut into contiguous chunks (one per pool thread,
/// `schedule.partition_ranges(m, threads)`); each chunk builds its own
/// per-partition run vectors independently, and the merge concatenates
/// them per partition in chunk order. A [`PairRun`] never spans `β`
/// columns and the chunks are `β`-aligned, so no run can straddle a chunk
/// seam: concatenation reproduces the serial run-length compression
/// exactly, not just the same pair sequence — pinned against
/// [`build_worklists`] by the proptest oracle below.
pub fn build_worklists_pooled(
    map: &ElementRowMap,
    ranges: &[Range<usize>],
    pool: &ThreadPool,
    schedule: Schedule,
) -> Vec<PairWorklist> {
    let m = map.element_count();
    let chunks = schedule.partition_ranges(m, pool.threads());
    if chunks.len() <= 1 {
        return build_worklists(map, ranges);
    }
    let (owner, lists) = ownership(map, ranges);
    let mut per_chunk: Vec<Vec<PairWorklist>> = Vec::with_capacity(chunks.len());
    per_chunk.resize_with(chunks.len(), Vec::new);
    pool.scoped_partition(&mut per_chunk, schedule.partition_dispatch(), |c, slot| {
        let mut part: Vec<PairWorklist> = ranges
            .iter()
            .map(|r| PairWorklist::new(r.clone()))
            .collect();
        for beta in chunks[c].clone() {
            for alpha in beta..m {
                assign_pair(map, &owner, &mut part, beta, alpha);
            }
        }
        *slot = part;
    });
    // Order-preserving merge: chunk results concatenate per partition in
    // ascending β order.
    let mut merged = lists;
    for part in per_chunk {
        for (dst, src) in merged.iter_mut().zip(part) {
            dst.pairs += src.pairs;
            dst.runs.extend(src.runs);
        }
    }
    merged
}

/// Builds per-partition worklists restricted to an explicit **near-pair
/// list** instead of the full triangle — the candidate generator of the
/// hierarchical backend's near-field assembly.
///
/// `near` must be sorted in the sequential `(β, then α)` pair order with
/// `β ≤ α` (the [`ClusterTree::block_partition`] contract), so each
/// worklist's runs come out in sequential order exactly as in the dense
/// build; only the pairs missing from `near` (the compressed far field)
/// are skipped.
///
/// [`ClusterTree::block_partition`]: layerbem_geometry::ClusterTree::block_partition
pub fn build_near_worklists(
    map: &ElementRowMap,
    ranges: &[Range<usize>],
    near: &[(u32, u32)],
) -> Vec<PairWorklist> {
    let (owner, mut lists) = ownership(map, ranges);
    debug_assert!(near.windows(2).all(|w| w[0] < w[1]), "near pairs unsorted");
    for &(beta, alpha) in near {
        debug_assert!(beta <= alpha);
        assign_pair(map, &owner, &mut lists, beta as usize, alpha as usize);
    }
    lists
}

/// The minimum row-chunk size that keeps boundary-pair recompute bounded
/// by the mesh's own locality: the mean element row spread
/// `⌈Σ (hi − lo + 1) / M⌉`.
///
/// With precomputed worklists the only cost of fine partitions is that a
/// pair is computed once per distinct partition among its ≤4 target rows. Flooring the chunk at the
/// mean element spread keeps a typical pair's targets inside one
/// partition, so the overlap stays the documented `O(boundary)` while the
/// schedule keeps as much dispatch granularity as the geometry permits —
/// a floor that scales with mesh locality, not with thread count.
pub fn locality_min_chunk(map: &ElementRowMap) -> usize {
    let m = map.element_count();
    if m == 0 {
        return 1;
    }
    let total: usize = (0..m).map(|e| map.hi(e) - map.lo(e) + 1).sum();
    total.div_ceil(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};
    use layerbem_geometry::{Mesh, Mesher};
    use layerbem_parfor::Schedule;

    fn grid_mesh(nx: usize, ny: usize) -> Mesh {
        Mesher::default().mesh(&rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0),
            width: 20.0,
            height: 20.0,
            nx,
            ny,
            depth: 0.8,
            radius: 0.006,
        }))
    }

    /// The exact ownership predicate, by brute-force triangle scan — the
    /// oracle the worklists must reproduce pair for pair, in order.
    fn scan_pairs(mesh: &Mesh, rows: &Range<usize>) -> Vec<(usize, usize)> {
        let m = mesh.element_count();
        let mut out = Vec::new();
        for beta in 0..m {
            for alpha in beta..m {
                let nb = mesh.elements[beta].nodes;
                let na = mesh.elements[alpha].nodes;
                let touches = if alpha == beta {
                    rows.contains(&nb[0]) || rows.contains(&nb[1])
                } else {
                    nb.iter()
                        .any(|&p| na.iter().any(|&q| rows.contains(&p.max(q))))
                };
                if touches {
                    out.push((beta, alpha));
                }
            }
        }
        out
    }

    #[test]
    fn worklists_reproduce_the_scan_predicate_in_order() {
        let mesh = grid_mesh(3, 2);
        let map = ElementRowMap::from_mesh(&mesh);
        let n = mesh.dof();
        for schedule in [
            Schedule::static_blocked(),
            Schedule::static_chunk(3),
            Schedule::dynamic(2),
            Schedule::guided(1),
        ] {
            for threads in [1usize, 2, 5] {
                let ranges = schedule.partition_ranges(n, threads);
                let lists = build_worklists(&map, &ranges);
                assert_eq!(lists.len(), ranges.len());
                for (list, range) in lists.iter().zip(&ranges) {
                    assert_eq!(list.rows(), range.clone());
                    let got: Vec<_> = list.pairs().collect();
                    assert_eq!(
                        got,
                        scan_pairs(&mesh, range),
                        "{} threads={threads} rows={range:?}",
                        schedule.label()
                    );
                    assert_eq!(list.pair_count(), got.len());
                }
            }
        }
    }

    #[test]
    fn every_pair_has_exactly_one_accounting_owner() {
        let mesh = grid_mesh(2, 2);
        let map = ElementRowMap::from_mesh(&mesh);
        let m = mesh.element_count();
        let ranges = Schedule::dynamic(1).partition_ranges(mesh.dof(), 3);
        let lists = build_worklists(&map, &ranges);
        for beta in 0..m {
            for alpha in beta..m {
                let owners = lists
                    .iter()
                    .filter(|l| l.owns_accounting(&map, beta, alpha))
                    .count();
                assert_eq!(owners, 1, "pair ({beta}, {alpha})");
                // The accounting owner also lists the pair.
                let owner = lists
                    .iter()
                    .find(|l| l.owns_accounting(&map, beta, alpha))
                    .unwrap();
                assert!(owner.pairs().any(|p| p == (beta, alpha)));
            }
        }
    }

    #[test]
    // A one-element range slice is exactly what's meant here, not a
    // range-to-Vec collect.
    #[allow(clippy::single_range_in_vec_init)]
    fn runs_compress_consecutive_pairs() {
        // One partition owning every row sees the whole triangle as one
        // run per column.
        let mesh = grid_mesh(2, 1);
        let map = ElementRowMap::from_mesh(&mesh);
        let m = mesh.element_count();
        let lists = build_worklists(&map, &[0..mesh.dof()]);
        assert_eq!(lists.len(), 1);
        assert_eq!(lists[0].runs().len(), m, "one run per column");
        assert_eq!(lists[0].pair_count(), m * (m + 1) / 2);
        for (beta, run) in lists[0].runs().iter().enumerate() {
            assert_eq!(run.beta as usize, beta);
            assert_eq!(run.alphas(), beta..m);
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn gap_rows_own_nothing() {
        let mesh = grid_mesh(2, 1);
        let map = ElementRowMap::from_mesh(&mesh);
        // Only the last row is covered: every listed pair must target it.
        let n = mesh.dof();
        let lists = build_worklists(&map, &[n - 1..n]);
        assert_eq!(lists.len(), 1);
        assert!(lists[0].pair_count() > 0);
        for (beta, alpha) in lists[0].pairs() {
            assert!(map
                .pair_target_rows(beta, alpha)
                .as_slice()
                .contains(&(n - 1)));
        }
    }

    #[test]
    fn empty_mesh_and_empty_ranges() {
        let mesh = Mesher::default().mesh(&layerbem_geometry::ConductorNetwork::new());
        let map = ElementRowMap::from_mesh(&mesh);
        assert!(build_worklists(&map, &[]).is_empty());
        assert_eq!(locality_min_chunk(&map), 1);
    }

    #[test]
    fn locality_chunk_is_mean_element_spread() {
        let mesh = grid_mesh(2, 2);
        let map = ElementRowMap::from_mesh(&mesh);
        let m = mesh.element_count();
        let total: usize = (0..m).map(|e| map.hi(e) - map.lo(e) + 1).sum();
        assert_eq!(locality_min_chunk(&map), total.div_ceil(m));
        assert!(locality_min_chunk(&map) >= 1);
    }
}
