//! Property-based specification of the pair-worklist subsystem: for random
//! meshes × schedules × thread counts, the union of the per-partition
//! worklists is exactly the pair triangle — every pair listed by each
//! partition whose rows its targets touch (the scan predicate, used here
//! as the oracle), in the sequential pair order, with exactly one
//! partition charged with the pair's accounting.

use proptest::prelude::*;

use layerbem_core::assembly::worklist::{
    build_near_worklists, build_worklists, build_worklists_pooled, locality_min_chunk,
};
use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};
use layerbem_geometry::{ClusterTree, ElementRowMap, Mesh, Mesher};
use layerbem_parfor::{Schedule, ThreadPool};

fn random_mesh(nx: usize, ny: usize, subdivide: bool) -> Mesh {
    let net = rectangular_grid(RectGridSpec {
        origin: (0.0, 0.0),
        width: 10.0 * (nx as f64 + 1.0),
        height: 10.0 * (ny as f64 + 1.0),
        nx,
        ny,
        depth: 0.8,
        radius: 0.006,
    });
    let mesher = if subdivide {
        // Subdivision interleaves fresh interior nodes between the shared
        // crossing nodes, widening element row spreads — the stress case
        // for target-row locality.
        Mesher::new(layerbem_geometry::MeshOptions {
            max_element_length: 6.0,
        })
    } else {
        Mesher::default()
    };
    mesher.mesh(&net)
}

fn schedule_from(kind: usize, chunk: usize) -> Schedule {
    match kind % 4 {
        0 => Schedule::static_blocked(),
        1 => Schedule::static_chunk(chunk),
        2 => Schedule::dynamic(chunk),
        _ => Schedule::guided(chunk),
    }
}

/// The scan engine's exact per-partition candidate predicate — the oracle
/// the worklists must reproduce pair for pair, in order.
fn scan_pairs(mesh: &Mesh, rows: &std::ops::Range<usize>) -> Vec<(usize, usize)> {
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..Default::default() })]

    /// Each partition's worklist is exactly the scan predicate's pair
    /// list, in the sequential pair order.
    #[test]
    fn worklists_match_the_scan_oracle_in_order(
        nx in 1usize..5,
        ny in 1usize..4,
        subdivide in any::<bool>(),
        kind in 0usize..4,
        chunk in 1usize..6,
        threads in 1usize..9,
    ) {
        let mesh = random_mesh(nx, ny, subdivide);
        let map = ElementRowMap::from_mesh(&mesh);
        let ranges = schedule_from(kind, chunk).partition_ranges(mesh.dof(), threads);
        let lists = build_worklists(&map, &ranges);
        prop_assert_eq!(lists.len(), ranges.len());
        for (list, range) in lists.iter().zip(&ranges) {
            prop_assert_eq!(list.rows(), range.clone());
            let got: Vec<_> = list.pairs().collect();
            prop_assert_eq!(got.len(), list.pair_count());
            prop_assert_eq!(got, scan_pairs(&mesh, range));
        }
    }

    /// The union of the worklists is exactly the pair triangle: every
    /// pair appears in at least one partition, exactly one partition is
    /// its accounting owner (it holds the pair's highest target row), and
    /// that owner always lists the pair.
    #[test]
    fn union_is_the_pair_triangle_with_one_accounting_owner(
        nx in 1usize..5,
        ny in 1usize..4,
        subdivide in any::<bool>(),
        kind in 0usize..4,
        chunk in 1usize..6,
        threads in 1usize..9,
    ) {
        let mesh = random_mesh(nx, ny, subdivide);
        let map = ElementRowMap::from_mesh(&mesh);
        let m = mesh.element_count();
        let ranges = schedule_from(kind, chunk).partition_ranges(mesh.dof(), threads);
        let lists = build_worklists(&map, &ranges);
        let sets: Vec<std::collections::HashSet<(usize, usize)>> =
            lists.iter().map(|l| l.pairs().collect()).collect();
        // No worklist repeats a pair.
        for (list, set) in lists.iter().zip(&sets) {
            prop_assert_eq!(list.pair_count(), set.len());
        }
        let mut union = 0usize;
        for beta in 0..m {
            for alpha in beta..m {
                let holders = sets.iter().filter(|s| s.contains(&(beta, alpha))).count();
                prop_assert!(holders >= 1, "pair ({}, {}) unassigned", beta, alpha);
                // A pair targets at most 4 distinct rows, so it can be
                // recomputed by at most 4 partitions no matter how fine
                // the decomposition.
                prop_assert!(holders <= 4, "pair ({}, {})", beta, alpha);
                union += 1;
                let owners: Vec<usize> = lists
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.owns_accounting(&map, beta, alpha))
                    .map(|(k, _)| k)
                    .collect();
                prop_assert_eq!(owners.len(), 1, "pair ({}, {})", beta, alpha);
                prop_assert!(sets[owners[0]].contains(&(beta, alpha)));
            }
        }
        prop_assert_eq!(union, m * (m + 1) / 2);
    }

    /// The pooled `O(M²)` pre-pass is **identical** to the serial build —
    /// same runs, same pair counts, for any row schedule × column-split
    /// schedule × thread count. The β-aligned chunking cannot split a run,
    /// so the order-preserving merge reproduces the serial run-length
    /// compression exactly.
    #[test]
    fn pooled_prepass_is_identical_to_serial(
        nx in 1usize..5,
        ny in 1usize..4,
        subdivide in any::<bool>(),
        kind in 0usize..4,
        chunk in 1usize..6,
        threads in 1usize..9,
        split_kind in 0usize..4,
        split_chunk in 1usize..6,
        pool_threads in 1usize..5,
    ) {
        let mesh = random_mesh(nx, ny, subdivide);
        let map = ElementRowMap::from_mesh(&mesh);
        let ranges = schedule_from(kind, chunk).partition_ranges(mesh.dof(), threads);
        let serial = build_worklists(&map, &ranges);
        let pool = ThreadPool::new(pool_threads);
        let pooled =
            build_worklists_pooled(&map, &ranges, &pool, schedule_from(split_kind, split_chunk));
        prop_assert_eq!(serial.len(), pooled.len());
        for (s, p) in serial.iter().zip(&pooled) {
            prop_assert_eq!(s.rows(), p.rows());
            prop_assert_eq!(s.pair_count(), p.pair_count());
            prop_assert_eq!(s.runs(), p.runs());
        }
    }

    /// Near-pair worklists are exactly the full-triangle worklists with
    /// the far pairs filtered out, in the same order.
    #[test]
    fn near_worklists_are_the_filtered_triangle(
        nx in 1usize..5,
        ny in 1usize..4,
        kind in 0usize..4,
        chunk in 1usize..6,
        threads in 1usize..9,
        leaf in 1usize..12,
    ) {
        let mesh = random_mesh(nx, ny, true);
        let map = ElementRowMap::from_mesh(&mesh);
        let tree = ClusterTree::build(&mesh, leaf);
        let near = tree.block_partition(1.0).near;
        let in_near: std::collections::HashSet<(usize, usize)> =
            near.iter().map(|&(b, a)| (b as usize, a as usize)).collect();
        let ranges = schedule_from(kind, chunk).partition_ranges(mesh.dof(), threads);
        let full = build_worklists(&map, &ranges);
        let restricted = build_near_worklists(&map, &ranges, &near);
        for (f, r) in full.iter().zip(&restricted) {
            let want: Vec<_> = f.pairs().filter(|p| in_near.contains(p)).collect();
            let got: Vec<_> = r.pairs().collect();
            prop_assert_eq!(got, want);
        }
    }

    /// The locality floor never exceeds the matrix order and a coarser
    /// decomposition never lists fewer total pairs than the triangle.
    #[test]
    // A one-element range slice is exactly what's meant below.
    #[allow(clippy::single_range_in_vec_init)]
    fn locality_floor_is_sane(
        nx in 1usize..4,
        ny in 1usize..4,
        subdivide in any::<bool>(),
    ) {
        let mesh = random_mesh(nx, ny, subdivide);
        let map = ElementRowMap::from_mesh(&mesh);
        let floor = locality_min_chunk(&map);
        prop_assert!(floor >= 1);
        prop_assert!(floor <= mesh.dof());
        // One partition owning every row holds the whole triangle once.
        let whole = build_worklists(&map, &[0..mesh.dof()]);
        let m = mesh.element_count();
        prop_assert_eq!(whole[0].pair_count(), m * (m + 1) / 2);
    }
}
