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
//! The paper parallelizes it by "taking the assembly process out of that
//! loop, which implies first the computation and the storage of all the
//! elemental matrices and, after this step, the assembly in a sequential
//! mode" (§6.2). One engine does that here, storing the pair *classes*
//! only (below) in one class store per pair set, in three phases per band
//! of the triangle:
//!
//! 1. **intern** — walk the pairs in the double loop's order and give each
//!    the id of its class, looking its key up in the store first; a key
//!    the store lacks becomes a new class of the band;
//! 2. **integrate** — run [`pair_block`] once per new class of the band,
//!    in chunks of classes on
//!    [`SolveOptions::parallelism`](crate::formulation::SolveOptions)'s
//!    pool and schedule: independent tasks of similar cost, with no
//!    triangle imbalance and no partition boundary;
//! 3. **scatter** — walk the band again in pair order and
//!    [`scatter_pair`] each pair's class block into the matrix.
//!
//! Every packed entry receives its contributions in the double loop's
//! order, and a class block carries the bits the kernel returns for any
//! member of its class, so the matrix, `column_terms` and `cost.kernel`
//! are **bit-identical** to the paper's double loop for every schedule,
//! thread count and store capacity. One thread is a one-thread pool: the same
//! code, with the integrate region run inline. The double loop itself is
//! the tests' bit-identity oracle, not a production engine; the paper's
//! store-every-block variant is rebuilt from the public elemental-block
//! API ([`Block`], [`pair_block`], [`scatter_pair`]) for the reproduction
//! tables in `crates/bench/src/staged.rs`.
//!
//! Every engine evaluates pairs through one kernel evaluator, the batched
//! lane path of [`pair_block`]. [`pair_block_scalar`] is its
//! point-at-a-time oracle, called only by tests.
//!
//! **Congruent pairs are one class.** [`pair_block`] computes every block
//! in the pair's own horizontal frame: the origin is the source element
//! α's first node in x and y, and depth is untouched. A layered soil's
//! image series does not change under a horizontal translation, so this
//! is the same integral, and it makes the block a pure function of (shape
//! of β, shape of α, `Δxy = β.a − α.a`), an element's shape being the bits
//! of `(b − a)ₓ`, `(b − a)ᵧ`, `a_z`, `b_z` and its radius. A class is
//! exactly those bits. The store keeps a pair set's classes across its
//! bands, so a class met again in a later band is not integrated again
//! while the store holds it. Its capacity follows the pair set: 4 096
//! classes (≈ 0.25 MB at 64 B a class) up to 131 072 pairs, 8 192 up to
//! 262 144 and 16 384 (≈ 1 MB) beyond; a band's class ids add 4 B a pair
//! (≤ 256 KB). The kernel runs once for 17.3 % (Balaidos), 40.1 %
//! (Barberá) and 48.2 % (Barberá refined to 628 dof, whose pairs are
//! 40.7 % distinct classes) of the pairs, at every thread count and
//! schedule: eviction runs on the calling thread, in pair order.
//!
//! The compressed-operator generation ([`assemble_hierarchical`]) runs its
//! near field, and a moved edit
//! ([`Study::apply_edit`](crate::study::Study::apply_edit)) its changed
//! pairs under the old and the new geometry, through the same class-first
//! routine; the point-collocation matrix ([`assemble_collocation`]) is one
//! pooled body over disjoint row ranges.

use std::time::Instant;

use layerbem_geometry::{Mesh, Point3};
use layerbem_numeric::{CompressionStats, SymMatrix};
use layerbem_parfor::ExecutionStats;

use crate::formulation::{Parallelism, SolveOptions};
use crate::integration::ElementGeom;
use crate::kernel::{KernelBatch, KernelCost, SoilKernel};

mod collocation;
mod hierarchical;
mod memo;

#[cfg(test)]
mod tests;

pub use collocation::assemble_collocation;
pub use hierarchical::{
    assemble_hierarchical, HierarchicalReport, DEFAULT_ADMISSIBILITY, MAX_FAR_RANK,
};
pub(crate) use memo::ClassStore;
use memo::PairShapes;

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
    /// dense Galerkin engine and the edit re-integration this is the wall
    /// time of the integrate phase, so it never exceeds `seconds`; the
    /// hierarchical and collocation assemblies are kernel-dominated with
    /// no finer attribution, so they report their full wall time.
    pub kernel_seconds: f64,
    /// Series terms and batched-lane points/slots of the blocks the
    /// result embodies: every pair is charged its class's cost, so the
    /// counts are what the double loop computes, identical across
    /// engines, schedules, thread counts and store capacities.
    pub kernel: KernelCost,
    /// Pairs the generation placed a block for: the triangle's
    /// `M(M+1)/2` for a dense Galerkin assembly; the near pairs plus the
    /// far blocks' sampled pairs for the hierarchical one; for an edit,
    /// each re-integrated pair twice, under the old and the new geometry.
    /// 0 for collocation, whose unit is the row.
    pub pairs: usize,
    /// Kernel runs: for the dense engine, the hierarchical near field and
    /// the edit re-integration (over both geometries), the classes
    /// integrated for the pair set — a class evicted from the pair set's
    /// store and met again counts again — the same number at every thread
    /// count and schedule; every other pair reused its class's block.
    pub pairs_evaluated: usize,
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
        self.pairs += other.pairs;
        self.pairs_evaluated += other.pairs_evaluated;
    }
}

/// Output of matrix generation.
#[derive(Clone, Debug)]
pub struct AssemblyReport {
    /// Packed symmetric Galerkin matrix over mesh nodes.
    pub matrix: SymMatrix,
    /// Galerkin right-hand side `ν_j = ∫ w_j dΓ` for unit GPR.
    pub rhs: Vec<f64>,
    /// Series terms the blocks of each outer column embody — a
    /// deterministic, machine-independent profile of the paper's column
    /// tasks. A column has no kernel time of its own (its pairs share
    /// their classes' integrations); the reproduction tables time columns
    /// in the staged harness (`crates/bench/src/staged.rs`).
    pub column_terms: Vec<u64>,
    /// What the generation cost in total (`cost.kernel.terms` is the
    /// `column_terms` sum).
    pub cost: AssemblyCost,
    /// Per-thread runtime stats of the integrate regions, summed over
    /// bands (one thread, run inline, at one thread).
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

/// The pair in its own horizontal frame: the origin is `alpha`'s first
/// node in x and y, depth is untouched. Every coordinate of the result is
/// computed from the bits of the memo key alone — `Δ = β.a − α.a` in x
/// and y, and each element's `(b − a)ₓ`, `(b − a)ᵧ`, `a_z`, `b_z` and
/// radius — so whatever is integrated from it is a pure function of that
/// key: `β' = (Δ, β.a_z) → (Δ + (β.b − β.a)ₓᵧ, β.b_z)` and
/// `α' = (0, 0, α.a_z) → ((α.b − α.a)ₓᵧ, α.b_z)`.
fn pair_frame(beta: &ElementGeom, alpha: &ElementGeom) -> (ElementGeom, ElementGeom) {
    let dx = beta.a.x - alpha.a.x;
    let dy = beta.a.y - alpha.a.y;
    let field = ElementGeom::new(
        Point3::new(dx, dy, beta.a.z),
        Point3::new(
            dx + (beta.b.x - beta.a.x),
            dy + (beta.b.y - beta.a.y),
            beta.b.z,
        ),
        beta.radius,
    );
    let source = ElementGeom::new(
        Point3::new(0.0, 0.0, alpha.a.z),
        Point3::new(alpha.b.x - alpha.a.x, alpha.b.y - alpha.a.y, alpha.b.z),
        alpha.radius,
    );
    (field, source)
}

/// The point-at-a-time oracle of [`pair_block`]: the same elemental matrix,
/// in the same pair frame, with every surface point evaluated on its own
/// through [`SoilKernel::element_potential`], returning the block and the
/// series terms consumed. No engine calls it; the tests compare the lane
/// kernel against it pair by pair (the two agree to the series tolerance,
/// not bitwise — lane `ln`, shared series stop).
pub fn pair_block_scalar(
    beta: &ElementGeom,
    alpha: &ElementGeom,
    kernel: &SoilKernel,
    quad: &OuterQuadrature,
) -> (Block, usize) {
    let (beta, alpha) = &pair_frame(beta, alpha);
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
/// The pair is integrated in its own horizontal frame (`pair_frame`):
/// the origin is `alpha`'s first node in x and y, and depth is
/// untouched. A layered soil's image series does not change under a
/// horizontal translation, so this is the same integral; computed this
/// way, the block — bits and [`KernelCost`] — is a pure function of the
/// pair's class (the shapes of both elements and the bits of their
/// offset), which is what lets class-first assembly integrate one pair
/// per class and reuse its block for the others. Every other caller —
/// the ACA sampler, the staged harness, the test oracles — gets the same
/// frame, so all of them see the same bits.
///
/// Gathers **all** `2q` surface points of the pair (both antipodal
/// azimuths of every outer quadrature point) into one [`KernelBatch`] and
/// evaluates the source element against them in a single
/// structure-of-arrays call
/// ([`SoilKernel::element_potential_batch`]: 4-wide lanes, one collective
/// series stop). The weighted outer assembly is the same loop as
/// [`pair_block_scalar`], the tests' oracle. Because the batch content is
/// fixed by the pair alone, the block is bit-identical no matter which
/// thread or schedule computes it. `batch` is the caller's reusable
/// scratch.
pub fn pair_block(
    beta: &ElementGeom,
    alpha: &ElementGeom,
    kernel: &SoilKernel,
    quad: &OuterQuadrature,
    batch: &mut KernelBatch,
) -> (Block, KernelCost) {
    let (beta, alpha) = &pair_frame(beta, alpha);
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
/// identical whether the block was just computed (the tests' double-loop
/// oracle, the staged harness) or is its class's stored block (the
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

/// Classes one task of the integrate region computes. The kernel scratch
/// is made once per task, and its allocations showed at 16: with uniform
/// soil's cheap kernel, one-thread integration of 2 224 dof ran 8–13 %
/// faster at 64.
const CLASS_CHUNK: usize = 64;

/// Runs Galerkin matrix generation class-first, on `opts.parallelism`'s
/// pool and schedule: each band of the triangle interns its pairs' classes
/// in the double loop's order, integrates each class once on the pool, and
/// scatters every pair's class block in pair order — bit-identical to the
/// paper's double loop (see the module doc).
///
/// `column_terms[β]` sums the costs of column β's class blocks;
/// `cost.pairs_evaluated` counts the classes integrated for the
/// triangle, the same at every thread count and schedule;
/// `cost.kernel_seconds` is the integrate phase's wall time; `stats` are
/// the integrate regions' stats.
pub fn assemble_galerkin(mesh: &Mesh, kernel: &SoilKernel, opts: &SolveOptions) -> AssemblyReport {
    assemble_galerkin_in(mesh, kernel, opts, ClassStore::default())
}

/// [`assemble_galerkin`] on the class store `store`: the tests run the
/// engine on a one-class store.
fn assemble_galerkin_in(
    mesh: &Mesh,
    kernel: &SoilKernel,
    opts: &SolveOptions,
    mut store: ClassStore,
) -> AssemblyReport {
    let t0 = Instant::now();
    let geoms = element_geoms(mesh);
    let m = geoms.len();
    // What the report keeps is allocated before the class store, so the
    // freed store leaves no hole among live bytes: outputs allocated after
    // an assembly's scratch once cost `cold-dense` 1–2 MB more peak RSS.
    let mut matrix = SymMatrix::zeros(mesh.dof());
    let mut column_terms = vec![0u64; m];
    let rhs = galerkin_rhs(mesh);
    let triangle = (0..m).flat_map(|beta| (beta..m).map(move |alpha| (beta, alpha)));
    let (cost, stats) = assemble_classes(
        &geoms,
        kernel,
        triangle,
        m * (m + 1) / 2,
        &mut store,
        &opts.parallelism,
        |beta, alpha, block, cost| {
            let (nb, na) = (mesh.elements[beta].nodes, mesh.elements[alpha].nodes);
            scatter_pair(nb, na, alpha == beta, block, &mut |p, q, v| {
                matrix.add(p, q, v)
            });
            column_terms[beta] += cost.terms;
        },
    );
    AssemblyReport {
        matrix,
        rhs,
        cost: AssemblyCost {
            assemblies: 1,
            seconds: t0.elapsed().as_secs_f64(),
            ..cost
        },
        column_terms,
        stats,
    }
}

/// The one pair integrator: the class-first routine of the dense engine,
/// the hierarchical near field and the moved-edit re-integration. `pairs`
/// yields the pairs `(β, α)` of `geoms` to assemble — `len` of them, which
/// sizes the store — in the order their contributions must reach each
/// entry. `store` is opened once for the pair set; then, band by band:
///
/// 1. *intern* — the store takes the band's pairs in order, with each
///    pair's class id, looking each key up among the classes it holds,
///    until the band is full;
/// 2. *integrate* — [`pair_block`] runs once per new class on its
///    representative pair, in chunks of [`CLASS_CHUNK`] classes on
///    `par`'s pool and schedule;
/// 3. *scatter* — the band is walked again in pair order, and
///    `scatter(β, α, block, cost)` receives each pair's class block and
///    cost, read through the pair's class id.
///
/// Returns the generation's cost — pairs, kernel cost summed over pairs,
/// classes integrated, the integrate phases' wall seconds — and the
/// integrate regions' summed stats.
pub(crate) fn assemble_classes<I>(
    geoms: &[ElementGeom],
    kernel: &SoilKernel,
    pairs: I,
    len: usize,
    store: &mut ClassStore,
    par: &Parallelism,
    mut scatter: impl FnMut(usize, usize, &Block, &KernelCost),
) -> (AssemblyCost, ExecutionStats)
where
    I: Iterator<Item = (usize, usize)> + Clone,
{
    let quad = OuterQuadrature::default();
    let shapes = PairShapes::new(geoms);
    let mut cost = AssemblyCost::default();
    let mut stats = ExecutionStats::default();
    let mut rest = pairs;
    store.open(len);
    loop {
        store.begin_band();
        for (beta, alpha) in rest.clone() {
            if !store.intern(&shapes, beta, alpha) {
                break;
            }
        }
        let band_len = store.pairs();
        if band_len == 0 {
            break;
        }

        if store.fresh() > 0 {
            let t = Instant::now();
            cost.pairs_evaluated += store.fresh();
            let mut chunks = store.fresh_chunks(CLASS_CHUNK);
            stats += par
                .pool
                .scoped_partition(&mut chunks, par.schedule, |_, chunk| {
                    let mut batch = KernelBatch::new();
                    chunk.fill(|beta, alpha| {
                        pair_block(&geoms[beta], &geoms[alpha], kernel, &quad, &mut batch)
                    });
                });
            cost.kernel_seconds += t.elapsed().as_secs_f64();
        }

        // The band's classes drive the zip, so `rest` advances by exactly
        // the band's pairs.
        for (class, (beta, alpha)) in store.band().zip(rest.by_ref()) {
            let (block, c) = class.get();
            scatter(beta, alpha, block, &c);
            cost.kernel += c;
        }
        cost.pairs += band_len;
    }
    (cost, stats)
}
