//! Galerkin matrix generation — the computation the paper parallelizes.
//!
//! "In the sequential program, the matrix generation process is performed
//! by means of a double loop that couples every element with all the
//! other" (paper §6.2): a triangle of `M(M+1)/2` element pairs, column `β`
//! holding pairs `(β, α ≤ β)`. For every pair a 2×2 **elemental matrix**
//! is computed (outer Gauss integration over the field element of the
//! analytically integrated source potentials) and assembled into the
//! packed symmetric global matrix.
//!
//! One engine computes the matrix, and how many threads run it is
//! decided here and nowhere else, from
//! [`SolveOptions::parallelism`](crate::formulation::SolveOptions): the
//! global packed triangle is split into disjoint row-range views
//! ([`SymRowsMut`](layerbem_numeric::SymRowsMut)), and each partition
//! accumulates **in place** the pairs whose target entries land in its
//! rows. Ownership is settled by the partition (the packed storage is
//! row-major, so a row range is a contiguous slice): no staging, no locks,
//! peak memory = the 1× global triangle. Each partition's candidate pairs
//! come from a precomputed [`worklist`] — one `O(M²)` integer pass over
//! the triangle, driven by the mesh's [`ElementRowMap`], performed once
//! before the region. Each packed entry receives its contributions in the
//! sequential pair order, so the result is **bit-identical** to the
//! paper's double loop for every schedule and thread count.
//!
//! One thread is a one-range pool: the single partition `0..n` owns every
//! row, its worklist is the whole triangle in the double loop's order, no
//! pair is recomputed and the region runs inline. At more than one
//! thread the schedule cuts the rows, and a pair whose targets straddle a
//! partition boundary is recomputed by each side — an `O(boundary)`
//! compute overlap instead of an `O(M²)` memory copy. The double loop
//! itself is the tests' bit-identity oracle, not a production engine.
//!
//! The paper's own scheme — store every elemental matrix, then assemble
//! sequentially, at "approximately twice the memory space" (§6.2) — is
//! not a production engine; the reproduction harness rebuilds it from
//! the public elemental-block API ([`Block`], [`pair_block`],
//! [`scatter_pair`]) in `crates/bench/src/staged.rs`.
//!
//! Every engine evaluates pairs through one kernel evaluator, the batched
//! lane path of [`pair_block`]. [`pair_block_scalar`] is its
//! point-at-a-time oracle, called only by tests.
//!
//! The compressed-operator generation ([`assemble_hierarchical`]) and the
//! point-collocation matrix ([`assemble_collocation`]) follow the same
//! rule: one pooled body, its rows split by `row_ranges`.

use std::ops::Range;
use std::time::Instant;

use layerbem_geometry::{ElementRowMap, Mesh};
use layerbem_numeric::{CompressionStats, SymMatrix};
use layerbem_parfor::{ExecutionStats, Schedule, ThreadPool};

use crate::formulation::SolveOptions;
use crate::integration::ElementGeom;
use crate::kernel::{KernelBatch, KernelCost, SoilKernel};

mod collocation;
mod hierarchical;
pub mod worklist;

#[cfg(test)]
mod tests;

pub use collocation::assemble_collocation;
pub use hierarchical::{
    assemble_hierarchical, HierarchicalReport, DEFAULT_ADMISSIBILITY, MAX_FAR_RANK,
};
use worklist::PairWorklist;

/// What matrix generation cost: the one record every assembler
/// ([`assemble_galerkin`], [`assemble_hierarchical`],
/// [`assemble_collocation`]) and the edit re-integration return, that a
/// [`Study`](crate::study::Study) stores and
/// [`StudyProfile`](crate::study::StudyProfile) exposes whole. Records add
/// with `+=`, so the cost of a rebuilt study, a soil sweep or a design
/// search is the sum of its generations' records.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AssemblyCost {
    /// Full matrix generations summed in this record (1 from an
    /// assembler, 0 from an edit re-integration).
    pub assemblies: usize,
    /// Wall-clock seconds of the generation.
    pub seconds: f64,
    /// Seconds inside kernel evaluation, split out of `seconds`. For the
    /// dense Galerkin engines this is the per-column profile's sum —
    /// worker CPU seconds, which can exceed the wall-clock `seconds` when
    /// columns ran in parallel; the hierarchical and collocation
    /// assemblies and the edit re-integration are kernel-dominated with
    /// no finer attribution, so they report their full wall time.
    pub kernel_seconds: f64,
    /// Series terms consumed and batched-lane points/slots issued.
    /// Attributed to the partition owning each pair's highest target row,
    /// so the counts are identical across engines, schedules and thread
    /// counts.
    pub kernel: KernelCost,
    /// Compression accounting of the generated operator: `Some` for the
    /// hierarchical backend, `None` for the dense engines — and for a
    /// sum over several assemblies, which describes no single operator.
    pub compression: Option<CompressionStats>,
}

impl AssemblyCost {
    /// Batched-lane occupancy of the kernel phase
    /// ([`KernelCost::lane_occupancy`]).
    pub fn lane_occupancy(&self) -> Option<f64> {
        self.kernel.lane_occupancy()
    }
}

impl std::ops::AddAssign for AssemblyCost {
    fn add_assign(&mut self, other: AssemblyCost) {
        self.compression = match (self.assemblies, other.assemblies) {
            (0, _) => other.compression,
            (_, 0) => self.compression,
            _ => None,
        };
        self.assemblies += other.assemblies;
        self.seconds += other.seconds;
        self.kernel_seconds += other.kernel_seconds;
        self.kernel += other.kernel;
    }
}

/// Output of matrix generation.
#[derive(Clone, Debug)]
pub struct AssemblyReport {
    /// Packed symmetric Galerkin matrix over mesh nodes.
    pub matrix: SymMatrix,
    /// Galerkin right-hand side `ν_j = ∫ w_j dΓ` for unit GPR.
    pub rhs: Vec<f64>,
    /// Wall-clock seconds spent computing each outer column (meaningful
    /// at one thread; these feed the schedule simulator as the authentic
    /// task-cost profile of the triangular loop).
    pub column_seconds: Vec<f64>,
    /// Series terms consumed per outer column — a deterministic,
    /// machine-independent cost proxy for the same profile.
    pub column_terms: Vec<u64>,
    /// What the generation cost in total (`cost.kernel.terms` is the
    /// `column_terms` sum, `cost.kernel_seconds` the `column_seconds`
    /// sum).
    pub cost: AssemblyCost,
    /// Per-thread runtime stats of the assembly region (one partition,
    /// run inline, at one thread).
    pub stats: ExecutionStats,
}

impl AssemblyReport {
    /// Total series terms over all pairs.
    pub fn total_terms(&self) -> u64 {
        self.cost.kernel.terms
    }
}

/// One 2×2 elemental matrix: `block[j][i] = ∫_β w_j ∫_α G N_i`.
pub type Block = [[f64; 2]; 2];

/// Precomputes element geometries from a mesh.
pub fn element_geoms(mesh: &Mesh) -> Vec<ElementGeom> {
    (0..mesh.element_count())
        .map(|e| {
            let s = mesh.element_segment(e);
            ElementGeom::new(s.a, s.b, mesh.element_radius[e])
        })
        .collect()
}

/// Outer quadrature rules: a base rule for well-separated pairs and a
/// refined rule for near pairs, whose inner-integral factor varies
/// logarithmically and would otherwise leave `O(1e-4)` quadrature error
/// (visible as a broken grid symmetry, since the transposed pair of a
/// mirror image is integrated with the roles of the elements exchanged).
///
/// One rule, not an option: 4 Gauss points for well-separated pairs, 16
/// for near ones.
#[derive(Debug)]
pub struct OuterQuadrature {
    base: layerbem_numeric::GaussLegendre,
    near: layerbem_numeric::GaussLegendre,
}

impl Default for OuterQuadrature {
    fn default() -> Self {
        OuterQuadrature {
            base: layerbem_numeric::GaussLegendre::new(4),
            near: layerbem_numeric::GaussLegendre::new(16),
        }
    }
}

impl OuterQuadrature {
    /// Chooses the rule for a pair by separation: near when the closest
    /// endpoints are within two element lengths.
    fn select(&self, beta: &ElementGeom, alpha: &ElementGeom) -> &layerbem_numeric::GaussLegendre {
        let scale = beta.length.max(alpha.length);
        let d = endpoint_separation(beta, alpha);
        if d < 2.0 * scale {
            &self.near
        } else {
            &self.base
        }
    }
}

/// Cheap separation estimate: minimum distance between the endpoints of
/// one element and the axis of the other (grids only meet at nodes, so
/// this catches every near configuration).
fn endpoint_separation(a: &ElementGeom, b: &ElementGeom) -> f64 {
    use layerbem_geometry::Segment;
    let sa = Segment::new(a.a, a.b);
    let sb = Segment::new(b.a, b.b);
    sa.distance_to_point(b.a)
        .min(sa.distance_to_point(b.b))
        .min(sb.distance_to_point(a.a))
        .min(sb.distance_to_point(a.b))
}

/// The point-at-a-time oracle of [`pair_block`]: the same elemental matrix
/// with every surface point evaluated on its own through
/// [`SoilKernel::element_potential`], returning the block and the series
/// terms consumed. No engine calls it; the tests compare the lane kernel
/// against it pair by pair (the two agree to the series tolerance, not
/// bitwise — lane `ln`, shared series stop).
pub fn pair_block_scalar(
    beta: &ElementGeom,
    alpha: &ElementGeom,
    kernel: &SoilKernel,
    quad: &OuterQuadrature,
) -> (Block, usize) {
    let mut b: Block = [[0.0; 2]; 2];
    let mut terms = 0usize;
    let len = beta.length;
    let rule = quad.select(beta, alpha);
    for (s, w) in rule.mapped(0.0, len) {
        // Field points on the conductor surface: the thin-wire
        // regularization that keeps the self-interaction finite. The two
        // antipodal azimuths are averaged (symmetry-preserving
        // circumferential average; see `ElementGeom::surface_pair`).
        let (xp, xm) = beta.surface_pair(s);
        let (vp, tp) = kernel.element_potential(xp, alpha);
        let (vm, tm) = kernel.element_potential(xm, alpha);
        let v = [0.5 * (vp[0] + vm[0]), 0.5 * (vp[1] + vm[1])];
        let n1 = s / len;
        let n0 = 1.0 - n1;
        b[0][0] += w * n0 * v[0];
        b[0][1] += w * n0 * v[1];
        b[1][0] += w * n1 * v[0];
        b[1][1] += w * n1 * v[1];
        terms += tp + tm;
    }
    (b, terms)
}

/// Computes the elemental matrix for field element `beta` against source
/// element `alpha` — the pair-block computation every engine calls.
///
/// Gathers **all** `2q` surface points of the pair (both antipodal
/// azimuths of every outer quadrature point) into one [`KernelBatch`] and
/// evaluates the source element against them in a single
/// structure-of-arrays call
/// ([`SoilKernel::element_potential_batch`]: 4-wide lanes, one collective
/// series stop). The weighted outer assembly is the same loop as
/// [`pair_block_scalar`], the tests' oracle. Because the batch content is
/// fixed by the pair alone, the block is bit-identical no matter which
/// thread, schedule or partition computes it. `batch` is the caller's
/// reusable scratch.
pub fn pair_block(
    beta: &ElementGeom,
    alpha: &ElementGeom,
    kernel: &SoilKernel,
    quad: &OuterQuadrature,
    batch: &mut KernelBatch,
) -> (Block, KernelCost) {
    let mut b: Block = [[0.0; 2]; 2];
    let len = beta.length;
    let rule = quad.select(beta, alpha);
    batch.clear();
    for (s, _) in rule.mapped(0.0, len) {
        let (xp, xm) = beta.surface_pair(s);
        batch.push(xp);
        batch.push(xm);
    }
    let cost = kernel.element_potential_batch(batch, alpha);
    let vals = batch.values();
    for (k, (s, w)) in rule.mapped(0.0, len).enumerate() {
        let vp = vals[2 * k];
        let vm = vals[2 * k + 1];
        let v = [0.5 * (vp[0] + vm[0]), 0.5 * (vp[1] + vm[1])];
        let n1 = s / len;
        let n0 = 1.0 - n1;
        b[0][0] += w * n0 * v[0];
        b[0][1] += w * n0 * v[1];
        b[1][0] += w * n1 * v[0];
        b[1][1] += w * n1 * v[1];
    }
    (b, cost)
}

/// Scatters one elemental block as the canonical sequence of entry
/// updates. Every engine funnels through this function, so the per-entry
/// accumulation order — and therefore the floating-point result — is
/// identical whether contributions are applied to the whole matrix (the
/// tests' double-loop oracle) or filtered into a row-range view (the
/// engine).
#[inline]
pub fn scatter_pair(
    nb: [usize; 2],
    na: [usize; 2],
    diagonal_pair: bool,
    b: &Block,
    add: &mut impl FnMut(usize, usize, f64),
) {
    if diagonal_pair {
        // Diagonal pair: one ordered contribution (α, α). The
        // off-diagonal entry is symmetrized against quadrature
        // asymmetry.
        add(nb[0], nb[0], b[0][0]);
        add(nb[1], nb[1], b[1][1]);
        add(nb[0], nb[1], 0.5 * (b[0][1] + b[1][0]));
    } else {
        // Off-diagonal pair {β, α}: the packed slot (p, q), p ≠ q,
        // receives the single ordered contribution; a shared node
        // (p == q) receives both ordered contributions (β, α) and
        // (α, β), which are equal by the symmetry of G.
        for j in 0..2 {
            for i in 0..2 {
                let p = nb[j];
                let q = na[i];
                let v = b[j][i];
                add(p, q, v);
                if p == q {
                    add(p, q, v);
                }
            }
        }
    }
}

/// How a pooled assembly region splits the `n` matrix rows — the one
/// decision the Galerkin engine, the hierarchical near field and the
/// collocation assembler share. At one thread: the single range `0..n`,
/// so the region does exactly the serial loop's pair work (no pair
/// straddles a partition boundary, none is recomputed). At more than one:
/// the ranges `schedule` cuts for the pool's threads.
// One range covering every row is exactly what is meant at one thread.
#[allow(clippy::single_range_in_vec_init)]
fn row_ranges(n: usize, pool: &ThreadPool, schedule: Schedule) -> Vec<Range<usize>> {
    match pool.threads() {
        1 => vec![0..n],
        threads => schedule.partition_ranges(n, threads),
    }
}

/// Minimum element count at which the worklist pre-pass is built on the
/// pool. The pre-pass is `O(M²)` integer work: at a few hundred elements
/// it completes in well under a millisecond serially, while a pooled
/// dispatch plus per-chunk merge costs a comparable amount — only past
/// this cutoff does splitting the triangle walk pay for itself.
pub const POOLED_PREPASS_MIN_ELEMENTS: usize = 1024;

/// One partition's workspace of the worklist engine: an exclusively
/// owned row-range view of the global triangle, the partition's
/// precomputed pair worklist, and compact per-column accumulators sized
/// by the columns the worklist actually visits.
struct WorklistPart<'a> {
    view: layerbem_numeric::SymRowsMut<'a>,
    work: &'a PairWorklist,
    /// `(β, series terms, seconds)` for each visited column, ascending β
    /// (worklist runs arrive in sequential pair order, so a plain
    /// append-or-accumulate keeps this sorted).
    cols: Vec<(u32, u64, f64)>,
    /// Kernel cost of the pairs attributed to this partition.
    cost: KernelCost,
}

/// Galerkin right-hand side for unit GPR: `ν_p = Σ_{e ∋ p} L_e / 2`.
pub fn galerkin_rhs(mesh: &Mesh) -> Vec<f64> {
    let mut rhs = vec![0.0; mesh.dof()];
    for (e, el) in mesh.elements.iter().enumerate() {
        let half = 0.5 * mesh.element_length(e);
        rhs[el.nodes[0]] += half;
        rhs[el.nodes[1]] += half;
    }
    rhs
}

/// Runs Galerkin matrix generation in place on precomputed pair
/// worklists, on `opts.parallelism`'s pool and schedule: no staged
/// blocks, no per-partition triangle scan, 1× memory, bit-identical to
/// the paper's double loop.
///
/// The matrix rows are split by `row_ranges` — at more than one thread
/// the schedule's deterministic chunk decomposition, floored at the
/// mesh's [`worklist::locality_min_chunk`] — the per-partition candidate
/// pairs are emitted once by [`worklist::build_worklists`] from the
/// mesh's [`ElementRowMap`], and each partition then executes exactly its
/// own worklist — in sequential pair order, accumulating straight into
/// its [`SymRowsMut`](layerbem_numeric::SymRowsMut) view. The schedule's
/// chunk parameter therefore applies to **matrix rows** (the unit of
/// ownership), not pair columns. A pair's series terms are attributed to
/// the single partition owning the pair's highest target row (which
/// always computes it), so `column_terms` sums to exactly the sequential
/// count even when a boundary pair is recomputed by several partitions.
///
/// The worklist pre-pass runs on the pool when the pool has more than one
/// thread and the mesh has at least [`POOLED_PREPASS_MIN_ELEMENTS`]
/// elements; otherwise the serial build is faster than the pooled
/// dispatch it would replace.
pub fn assemble_galerkin(mesh: &Mesh, kernel: &SoilKernel, opts: &SolveOptions) -> AssemblyReport {
    let t0 = Instant::now();
    let geoms = element_geoms(mesh);
    let quad = OuterQuadrature::default();
    let (pool, schedule) = (&opts.parallelism.pool, opts.parallelism.schedule);
    let n = mesh.dof();
    let m = geoms.len();
    // What the report keeps is allocated before the region's scratch, as
    // in the double loop: allocated after it, these outputs left the
    // freed scratch as heap holes, and `cold-dense` read 1–2 MB more peak
    // RSS with the same live bytes.
    let mut matrix = SymMatrix::zeros(n);
    let mut column_terms = vec![0u64; m];
    let mut column_seconds = vec![0.0; m];
    let rhs = galerkin_rhs(mesh);
    let map = ElementRowMap::from_mesh(mesh);
    // A partition's candidate set is its worklist, so partition count
    // multiplies no triangle scan and needs no per-thread cap. The chunk
    // is floored only at the mesh's mean element row spread, which keeps a
    // typical pair's target rows co-located in one partition and thereby
    // bounds boundary-pair recompute by mesh locality rather than by
    // thread count.
    let dispatch_schedule = schedule.with_min_chunk(worklist::locality_min_chunk(&map));
    let ranges = row_ranges(n, pool, dispatch_schedule);
    // The O(M²) integer pre-pass itself runs on the pool: β-aligned column
    // chunks, order-preserving merge, bit-identical to the serial build
    // (pinned by the worklist proptest oracle). At one thread, or below
    // the element cutoff, the serial build wins — the pooled dispatch +
    // merge overhead costs more than the whole triangle walk on small
    // grids.
    let worklists = if pool.threads() == 1 || m < POOLED_PREPASS_MIN_ELEMENTS {
        worklist::build_worklists(&map, &ranges)
    } else {
        worklist::build_worklists_pooled(&map, &ranges, pool, dispatch_schedule)
    };

    let mut parts: Vec<WorklistPart> = matrix
        .partition_rows(&ranges)
        .into_iter()
        .zip(&worklists)
        .map(|(view, work)| WorklistPart {
            view,
            work,
            // Sized up front: a growing vector's abandoned buffers were
            // enough to raise peak RSS when two assemblies run side by side.
            cols: Vec::with_capacity(work.runs().len()),
            cost: KernelCost::default(),
        })
        .collect();

    let map_ref = &map;
    let stats = pool.scoped_partition(
        &mut parts,
        dispatch_schedule.partition_dispatch(),
        |_, part| {
            let WorklistPart {
                view,
                work,
                cols,
                cost,
            } = part;
            // The kernel scratch is a local, not a partition field: behind
            // a field the optimizer loses track of its aliasing, and the
            // one-thread assembly measured 5–10 % slower.
            let mut batch = KernelBatch::new();
            let rows = view.rows();
            for run in work.runs() {
                let beta = run.beta as usize;
                let nb = map_ref.element_nodes(beta);
                let t0 = Instant::now();
                let mut run_cost = KernelCost::default();
                for alpha in run.alphas() {
                    let na = map_ref.element_nodes(alpha);
                    let (b, c) = pair_block(&geoms[beta], &geoms[alpha], kernel, &quad, &mut batch);
                    scatter_pair(nb, na, alpha == beta, &b, &mut |p, q, v| {
                        if view.owns(p, q) {
                            view.add(p, q, v);
                        }
                    });
                    if rows.contains(&map_ref.pair_hi(beta, alpha)) {
                        run_cost += c;
                    }
                }
                let seconds = t0.elapsed().as_secs_f64();
                match cols.last_mut() {
                    Some(last) if last.0 == run.beta => {
                        last.1 += run_cost.terms;
                        last.2 += seconds;
                    }
                    _ => cols.push((run.beta, run_cost.terms, seconds)),
                }
                *cost += run_cost;
            }
        },
    );

    let mut kernel_cost = KernelCost::default();
    for part in &parts {
        for &(beta, terms, seconds) in &part.cols {
            column_terms[beta as usize] += terms;
            column_seconds[beta as usize] += seconds;
        }
        kernel_cost += part.cost;
    }
    drop(parts);
    AssemblyReport {
        matrix,
        rhs,
        cost: AssemblyCost {
            assemblies: 1,
            seconds: t0.elapsed().as_secs_f64(),
            kernel_seconds: column_seconds.iter().sum(),
            kernel: kernel_cost,
            compression: None,
        },
        column_seconds,
        column_terms,
        stats,
    }
}
