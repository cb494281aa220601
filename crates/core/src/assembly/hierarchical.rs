//! Hierarchical (compressed-operator) Galerkin generation: near pairs
//! class-first into a sparse-symmetric pattern (the dense engine's
//! routine, restricted to the near pairs), admissible far cluster pairs
//! ACA-compressed through a batched row/column sampler.

use std::time::Instant;

use layerbem_geometry::{ClusterTree, ElementRowMap, Mesh};
use layerbem_numeric::{aca_sampled, AcaError, FarBlock, HMatrix, MatrixSampler, SparseSym};
use layerbem_parfor::ExecutionStats;

use super::{
    assemble_classes, element_geoms, galerkin_rhs, pair_block, scatter_pair, AssemblyCost, Block,
    ClassStore, OuterQuadrature,
};
use crate::formulation::SolveOptions;
use crate::integration::ElementGeom;
use crate::kernel::{KernelBatch, SoilKernel};

/// Admissibility parameter `η` of the hierarchical backend's cluster-pair
/// partition: a cluster pair is compressed when `max(diam) ≤ η · dist`.
/// `1.0` is the customary BEM choice — strict enough that the layered-soil
/// kernel is smooth over every admissible block, loose enough that most of
/// the pair triangle is admissible on grid geometries.
pub const DEFAULT_ADMISSIBILITY: f64 = 1.0;

/// Rank cap of each far block's ACA compression. A block whose `ε`-rank
/// exceeds this bound aborts preparation with
/// [`AcaError::ToleranceNotReached`] instead of silently densifying; on
/// the paper's smooth soil kernels observed far-block ranks stay far
/// below it.
pub const MAX_FAR_RANK: usize = 96;

/// Output of hierarchical (compressed-operator) matrix generation.
#[derive(Clone, Debug)]
pub struct HierarchicalReport {
    /// The compressed Galerkin operator: sparse-symmetric near field plus
    /// ACA low-rank far blocks, driven by PCG through the same
    /// [`LinearOperator`](layerbem_numeric::LinearOperator) trait as the
    /// dense matrix.
    pub operator: HMatrix,
    /// Galerkin right-hand side (identical to the dense path's).
    pub rhs: Vec<f64>,
    /// What the generation cost. `cost.kernel` counts every near pair
    /// (each charged its class's cost, as in the dense engine) plus
    /// every pair block the ACA row/column sampling evaluated (each
    /// sampled pair block once per evaluation; the samplers memoize the
    /// immediately repeated pair within a fill) — a bulk count, because
    /// far work is organized by cluster block, not by triangle column, so
    /// the hierarchical path has no per-column profile.
    /// `cost.compression` is `operator.compression_stats()`.
    pub cost: AssemblyCost,
    /// Per-thread runtime stats of the near field's integrate regions,
    /// summed over bands (one thread, run inline, at one thread).
    pub stats: ExecutionStats,
}

/// Packed slot of an (unordered) entry contribution: `(row ≥ col)`.
#[inline]
fn packed_slot(p: usize, q: usize) -> (u32, u32) {
    (p.max(q) as u32, p.min(q) as u32)
}

/// For each Galerkin row of a cluster (ascending `rows`), the members
/// `(element, local node)` whose node is that row — the bookkeeping the
/// far-block entry oracle walks to reproduce the dense scatter exactly.
fn cluster_members(elems: &[u32], rows: &[usize], map: &ElementRowMap) -> Vec<Vec<(u32, u8)>> {
    let mut out = vec![Vec::new(); rows.len()];
    for &e in elems {
        let nd = map.element_nodes(e as usize);
        for (j, &p) in nd.iter().enumerate() {
            let k = rows
                .binary_search(&p)
                .expect("cluster rows cover its members");
            out[k].push((e, j as u8));
        }
    }
    out
}

/// Row/column sampler of one admissible far block — the oracle
/// [`aca_sampled`] drives. Entry `(i, j)` reproduces the dense scatter
/// exactly: the sum over member pairs `(β ∋ row i, α ∋ col j)` of the
/// elemental value the sequential assembly would have added to the packed
/// slot. Sampling whole rows/columns (instead of the per-entry closure the
/// [`aca`](layerbem_numeric::aca()) convenience wrapper uses) is what lets the kernel run batched:
/// every pair block inside a fill is one [`pair_block`] call, and a
/// one-entry memo folds the immediately repeated pair of a
/// two-member row or column into a single kernel evaluation.
///
/// The sampler is a pure function of `(i, j)` (memoization caches a pure
/// value), so compression is bit-identical whichever thread runs it.
struct FarSampler<'a> {
    row_members: &'a [Vec<(u32, u8)>],
    col_members: &'a [Vec<(u32, u8)>],
    geoms: &'a [ElementGeom],
    kernel: &'a SoilKernel,
    quad: &'a OuterQuadrature,
    /// Last `(lo, hi)` pair block computed — the repeat memo.
    memo: Option<((usize, usize), Block)>,
    /// The kernel cost and count of the pair blocks computed.
    cost: AssemblyCost,
    batch: KernelBatch,
}

impl FarSampler<'_> {
    fn pair(&mut self, lo: usize, hi: usize) -> Block {
        if let Some((key, blk)) = self.memo {
            if key == (lo, hi) {
                return blk;
            }
        }
        let (blk, c) = pair_block(
            &self.geoms[lo],
            &self.geoms[hi],
            self.kernel,
            self.quad,
            &mut self.batch,
        );
        self.cost.kernel += c;
        self.cost.pairs += 1;
        self.cost.pairs_evaluated += 1;
        self.memo = Some(((lo, hi), blk));
        blk
    }

    fn member_entry(&mut self, be: u32, jp: u8, ae: u32, iq: u8) -> f64 {
        let (b, a) = (be as usize, ae as usize);
        // Admissible clusters are element-disjoint, so b ≠ a; the dense
        // engine computes the pair with the lower element as the field
        // element.
        let (lo, hi) = (b.min(a), b.max(a));
        let blk = self.pair(lo, hi);
        if b < a {
            blk[jp as usize][iq as usize]
        } else {
            blk[iq as usize][jp as usize]
        }
    }
}

impl MatrixSampler for FarSampler<'_> {
    fn nrows(&self) -> usize {
        self.row_members.len()
    }

    fn ncols(&self) -> usize {
        self.col_members.len()
    }

    fn fill_row(&mut self, i: usize, out: &mut [f64]) {
        out.fill(0.0);
        // Copy the shared slice references out so the loops below do not
        // hold a borrow of `self` across the `&mut self` entry calls.
        let (row_members, col_members) = (self.row_members, self.col_members);
        for &(be, jp) in &row_members[i] {
            for (j, members) in col_members.iter().enumerate() {
                for &(ae, iq) in members {
                    out[j] += self.member_entry(be, jp, ae, iq);
                }
            }
        }
    }

    fn fill_col(&mut self, j: usize, out: &mut [f64]) {
        out.fill(0.0);
        let (row_members, col_members) = (self.row_members, self.col_members);
        for &(ae, iq) in &col_members[j] {
            for (i, members) in row_members.iter().enumerate() {
                for &(be, jp) in members {
                    out[i] += self.member_entry(be, jp, ae, iq);
                }
            }
        }
    }
}

/// Hierarchical Galerkin generation — the compressed-operator counterpart
/// of [`assemble_galerkin`](super::assemble_galerkin).
///
/// A binary [`ClusterTree`] over the elements splits the pair triangle
/// into **near** pairs (assembled densely, entry for entry in the
/// sequential near-pair order, into a [`SparseSym`] whose pattern is
/// exactly the near scatter targets) and admissible **far** cluster pairs
/// (each compressed by partially pivoted [`aca`](layerbem_numeric::aca()) into a `U·Vᵀ`
/// [`FarBlock`], sampling kernel entries on demand through an oracle that
/// reproduces the dense pair scatter bit for bit). The result answers
/// matvecs in `O(nnz + Σ r·(|σ|+|τ|))` instead of `O(N²)` and holds the
/// same order of bytes, at an accuracy set by `tol`.
///
/// On `opts.parallelism`'s pool, the near field is assembled by the same
/// class-first routine as the dense assembler, restricted to the near
/// pairs: their classes are integrated on the pool and every near pair is
/// scattered serially, in the sequential near-pair order, through
/// [`SparseSym::add`] — bit-identical across schedules and thread counts.
/// The far blocks are compressed concurrently (each block is an
/// independent, deterministic ACA run, so the result does not depend on
/// who computed it). At one thread every region runs inline.
///
/// Fails with [`AcaError::ToleranceNotReached`] when some far block's
/// rank hits [`MAX_FAR_RANK`] before reaching `tol` — the typed signal
/// the solve layer surfaces as a
/// [`PrepareError`](crate::study::PrepareError).
pub fn assemble_hierarchical(
    mesh: &Mesh,
    kernel: &SoilKernel,
    opts: &SolveOptions,
    tol: f64,
    leaf_size: usize,
) -> Result<HierarchicalReport, AcaError> {
    assemble_hierarchical_in(mesh, kernel, opts, tol, leaf_size, ClassStore::default())
}

/// [`assemble_hierarchical`] with the near field on the class store
/// `store`: the tests run it on a one-class store.
pub(super) fn assemble_hierarchical_in(
    mesh: &Mesh,
    kernel: &SoilKernel,
    opts: &SolveOptions,
    tol: f64,
    leaf_size: usize,
    mut store: ClassStore,
) -> Result<HierarchicalReport, AcaError> {
    let t0 = Instant::now();
    let geoms = element_geoms(mesh);
    let quad = OuterQuadrature::default();
    let n = mesh.dof();
    let map = ElementRowMap::from_mesh(mesh);
    let tree = ClusterTree::build(mesh, leaf_size);
    let parts = tree.block_partition(DEFAULT_ADMISSIBILITY);

    // Near pattern: exactly the packed slots the near pairs scatter into.
    let mut pattern: Vec<(u32, u32)> = Vec::with_capacity(4 * parts.near.len());
    for &(beta, alpha) in &parts.near {
        let nb = map.element_nodes(beta as usize);
        let na = map.element_nodes(alpha as usize);
        if beta == alpha {
            pattern.push(packed_slot(nb[0], nb[0]));
            pattern.push(packed_slot(nb[1], nb[1]));
            pattern.push(packed_slot(nb[0], nb[1]));
        } else {
            for &p in &nb {
                for &q in &na {
                    pattern.push(packed_slot(p, q));
                }
            }
        }
    }
    let mut near = SparseSym::from_pattern(n, pattern);

    let par = &opts.parallelism;
    let near_pairs = parts.near.iter().map(|&(b, a)| (b as usize, a as usize));
    let (mut cost, stats) = assemble_classes(
        &geoms,
        kernel,
        near_pairs,
        parts.near.len(),
        &mut store,
        par,
        |beta, alpha, blk, _| {
            let (nb, na) = (map.element_nodes(beta), map.element_nodes(alpha));
            scatter_pair(nb, na, alpha == beta, blk, &mut |p, q, v| near.add(p, q, v));
        },
    );
    // Freed before the far blocks allocate.
    drop(store);
    let map_ref = &map;

    // Far blocks: one deterministic ACA run per admissible cluster pair,
    // in the fixed partition order. Each block's rows and columns are
    // sampled through a [`FarSampler`], whose entries reproduce the dense
    // scatter exactly while the kernel runs batched per pair block.
    let geoms_ref = &geoms;
    let quad_ref = &quad;
    let tree_ref = &tree;
    let compress = |&(s, t): &(usize, usize)| -> Result<(FarBlock, AssemblyCost), AcaError> {
        let rows = tree_ref.cluster_rows(s, map_ref);
        let cols = tree_ref.cluster_rows(t, map_ref);
        let row_members = cluster_members(tree_ref.elements(s), &rows, map_ref);
        let col_members = cluster_members(tree_ref.elements(t), &cols, map_ref);
        let mut sampler = FarSampler {
            row_members: &row_members,
            col_members: &col_members,
            geoms: geoms_ref,
            kernel,
            quad: quad_ref,
            memo: None,
            cost: AssemblyCost::default(),
            batch: KernelBatch::new(),
        };
        let factors = aca_sampled(&mut sampler, tol, MAX_FAR_RANK)?;
        Ok((
            FarBlock {
                rows: rows.iter().map(|&p| p as u32).collect(),
                cols: cols.iter().map(|&q| q as u32).collect(),
                factors,
            },
            sampler.cost,
        ))
    };
    let far_pairs = &parts.far;
    let mut results: Vec<Option<Result<(FarBlock, AssemblyCost), AcaError>>> =
        vec![None; far_pairs.len()];
    par.pool.parallel_fill(&mut results, par.schedule, |k| {
        Some(compress(&far_pairs[k]))
    });
    let mut far_blocks = Vec::with_capacity(results.len());
    for r in results {
        let (fb, c) = r.expect("parallel_fill fills every slot")?;
        cost += c;
        far_blocks.push(fb);
    }

    let operator = HMatrix::new(near, far_blocks);
    let rhs = galerkin_rhs(mesh);
    let seconds = t0.elapsed().as_secs_f64();
    Ok(HierarchicalReport {
        cost: AssemblyCost {
            assemblies: 1,
            seconds,
            kernel_seconds: seconds,
            compression: Some(operator.compression_stats()),
            ..cost
        },
        operator,
        rhs,
        stats,
    })
}
