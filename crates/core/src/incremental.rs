//! Incremental re-prepare: the interactive-editing subsystem.
//!
//! A CAD editing session changes a few conductors at a time, yet the
//! from-scratch pipeline pays the full `O(M²)` assembly plus `O(N³)`
//! factorization on every keystroke — and the paper's own Table 6.1 shows
//! matrix generation taking 1723.2 s of a 1724.2 s run, so re-assembly is
//! the cost that matters. This module exploits the row-map
//! bookkeeping to touch only what an edit touched:
//!
//! 1. [`MeshDelta::diff`] classifies two meshes of the same deck: bitwise
//!    **unchanged**, **moved** (identical topology — node count and
//!    element connectivity — with some element geometries changed), or a
//!    **topology** change (elements added/removed, or a node merge
//!    broken). Moved edits name their changed elements and, through the
//!    CSR [`ElementRowMap`], the matrix rows they touch.
//! 2. [`Study::apply_edit`] re-integrates only the element pairs
//!    involving a changed element, under the old and the new geometry,
//!    through the class-first pair integrator a full assembly uses, so
//!    every re-integrated entry is **bit-identical** to what a fresh
//!    assembly of the edited mesh would produce — scatters the per-row
//!    deltas into the retained operator, and routes the factor through
//!    [`layerbem_numeric::update`]'s rank-`2m` Cholesky update/downdate
//!    when the [`incremental_worthwhile`] cost model says the sweeps beat
//!    a refactorization, falling back to a full refactorization (from the
//!    retained, already-updated operator — no re-assembly) otherwise.
//! 3. [`EditSession`] replays whole-conductor edits ([`EditOp`]) against
//!    a private editable [`Study`], the session object the deck `edit`
//!    stanzas and the serve `{"op":"edit"}` wire operation drive.
//!
//! Every phase is deterministic by construction: each class block is the
//! kernel's bits for any of its pairs, whichever thread integrates it,
//! the delta scatter and the rank-1 sweeps run serially in fixed order,
//! and the fallback refactorization is the one blocked factorization,
//! whose trailing updates give the same bits inline or on the pool (the
//! old Crout loop is only the tests' oracle) — so `apply_edit` produces
//! bitwise identical studies across schedules × thread counts.

use std::borrow::Cow;
use std::time::Instant;

use layerbem_geometry::{Conductor, ConductorNetwork, ElementRowMap, Mesh, MeshOptions, Mesher};
use layerbem_numeric::update::{
    apply_sym_modification, incremental_worthwhile, SymModification, UpdateError,
};
use layerbem_numeric::SymMatrix;
use layerbem_soil::SoilModel;

use crate::assembly::{
    assemble_classes, assemble_galerkin, element_geoms, galerkin_rhs, scatter_pair, AssemblyCost,
    Block, ClassStore,
};
use crate::formulation::{Formulation, OperatorBackend, SolveOptions, SolverChoice};
use crate::kernel::SoilKernel;
use crate::study::{Engine, PrepareError, Study};
use crate::system::{mesh_defect, GroundingSystem};
use crate::workload::StudySpec;

/// The retained editing state of an editable [`Study`] — what
/// [`Study::apply_edit`] diffs against and scatters into.
pub(crate) struct EditState {
    /// The mesh the current engine was assembled from.
    pub(crate) mesh: Mesh,
    /// The soil kernel (edits change geometry, never soil).
    pub(crate) kernel: SoilKernel,
    /// The assembled operator, kept in sync with every edit so the
    /// fallback refactorization never re-assembles. `None` for the PCG
    /// engine, which owns the operator itself.
    pub(crate) matrix: Option<SymMatrix>,
}

impl EditState {
    /// Bytes of the retained assembled operator (0 for the PCG engine).
    pub(crate) fn retained_matrix_bytes(&self) -> usize {
        self.matrix.as_ref().map_or(0, |m| 8 * m.packed().len())
    }
}

/// How two meshes of one deck differ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// Bitwise identical meshes: applying the delta is a no-op.
    Unchanged,
    /// Same topology (node count and element connectivity), some element
    /// geometries changed — the incremental path's case.
    Moved {
        /// Elements whose geometry (endpoints or radius) changed,
        /// ascending.
        elements: Vec<usize>,
        /// Matrix rows those elements touch (union of their node
        /// indices via the CSR [`ElementRowMap`]), ascending.
        touched_rows: Vec<usize>,
    },
    /// Element count, connectivity or node merging changed: the operator
    /// must be rebuilt from scratch.
    Topology {
        /// Elements present in the new mesh only (by geometric key).
        added: usize,
        /// Elements present in the old mesh only (by geometric key).
        removed: usize,
    },
}

/// The diff of two meshes: the new mesh plus its classification against
/// the old one. Produced by [`MeshDelta::diff`], consumed by
/// [`Study::apply_edit`].
#[derive(Clone, Debug)]
pub struct MeshDelta {
    new_mesh: Mesh,
    kind: DeltaKind,
}

impl MeshDelta {
    /// Diffs `old` → `new`. Topology is preserved iff the node counts
    /// match and the element arrays (node indices + conductor
    /// attribution) are identical; changed elements are then detected by
    /// **bitwise** comparison of their endpoint coordinates and radii, so
    /// a no-op edit diffs to [`DeltaKind::Unchanged`] exactly.
    pub fn diff(old: &Mesh, new: &Mesh) -> MeshDelta {
        if old.dof() != new.dof() || old.elements != new.elements {
            let (added, removed) = topology_diff(old, new);
            return MeshDelta {
                new_mesh: new.clone(),
                kind: DeltaKind::Topology { added, removed },
            };
        }
        let mut changed = Vec::new();
        for e in 0..new.element_count() {
            let so = old.element_segment(e);
            let sn = new.element_segment(e);
            let moved = point_bits(so.a) != point_bits(sn.a)
                || point_bits(so.b) != point_bits(sn.b)
                || old.element_radius[e].to_bits() != new.element_radius[e].to_bits();
            if moved {
                changed.push(e);
            }
        }
        if changed.is_empty() {
            return MeshDelta {
                new_mesh: new.clone(),
                kind: DeltaKind::Unchanged,
            };
        }
        let map = ElementRowMap::from_mesh(new);
        let mut touched = vec![false; new.dof()];
        for &e in &changed {
            let [a, b] = map.element_nodes(e);
            touched[a] = true;
            touched[b] = true;
        }
        let touched_rows: Vec<usize> = (0..new.dof()).filter(|&r| touched[r]).collect();
        MeshDelta {
            new_mesh: new.clone(),
            kind: DeltaKind::Moved {
                elements: changed,
                touched_rows,
            },
        }
    }

    /// The classification of this delta.
    pub fn kind(&self) -> &DeltaKind {
        &self.kind
    }

    /// The edited mesh the delta carries.
    pub fn new_mesh(&self) -> &Mesh {
        &self.new_mesh
    }
}

fn point_bits(p: layerbem_geometry::Point3) -> [u64; 3] {
    [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]
}

/// Multiset diff of element geometric keys (endpoints + radius bits):
/// how many elements exist only in `new` (added) / only in `old`
/// (removed).
fn topology_diff(old: &Mesh, new: &Mesh) -> (usize, usize) {
    let keys = |mesh: &Mesh| -> Vec<[u64; 7]> {
        let mut v: Vec<[u64; 7]> = (0..mesh.element_count())
            .map(|e| {
                let s = mesh.element_segment(e);
                let a = point_bits(s.a);
                let b = point_bits(s.b);
                [
                    a[0],
                    a[1],
                    a[2],
                    b[0],
                    b[1],
                    b[2],
                    mesh.element_radius[e].to_bits(),
                ]
            })
            .collect();
        v.sort_unstable();
        v
    };
    let ko = keys(old);
    let kn = keys(new);
    let (mut i, mut j) = (0, 0);
    let (mut added, mut removed) = (0, 0);
    while i < ko.len() && j < kn.len() {
        match ko[i].cmp(&kn[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                removed += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added += 1;
                j += 1;
            }
        }
    }
    (added + kn.len() - j, removed + ko.len() - i)
}

/// Which conductor endpoint a [`EditOp::MoveEnd`] displaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConductorEnd {
    /// The axis start point.
    A,
    /// The axis end point.
    B,
}

/// One whole-conductor edit of a [`ConductorNetwork`] — the grammar the
/// deck `edit` stanzas and the serve `{"op":"edit"}` operation share.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EditOp {
    /// Translate conductor `index` rigidly by `delta` (x, y, z).
    Move {
        /// Conductor index in deck order.
        index: usize,
        /// Displacement in meters.
        delta: [f64; 3],
    },
    /// Displace one endpoint of conductor `index` by `delta`.
    MoveEnd {
        /// Conductor index in deck order.
        index: usize,
        /// Which endpoint moves.
        end: ConductorEnd,
        /// Displacement in meters.
        delta: [f64; 3],
    },
    /// Append a conductor to the network.
    Add {
        /// The new conductor.
        conductor: Conductor,
    },
    /// Remove conductor `index` from the network.
    Remove {
        /// Conductor index in deck order.
        index: usize,
    },
}

/// Why an edit could not be applied.
#[derive(Clone, Debug, PartialEq)]
pub enum EditError {
    /// The study was prepared without edit state; use
    /// [`GroundingSystem::prepare_editable`].
    NotEditable(&'static str),
    /// The edit produces an invalid model (index out of range, conductor
    /// above the surface, degenerate axis, a conductor shorter than the
    /// mesher's merge distance, empty or disconnected grid).
    Model(&'static str),
    /// Rebuilding or refactorizing the edited operator failed.
    Prepare(PrepareError),
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::NotEditable(why) => write!(f, "study is not editable: {why}"),
            EditError::Model(why) => write!(f, "edit rejected: {why}"),
            EditError::Prepare(e) => write!(f, "edit could not be prepared: {e}"),
        }
    }
}

impl std::error::Error for EditError {}

impl From<PrepareError> for EditError {
    fn from(e: PrepareError) -> Self {
        EditError::Prepare(e)
    }
}

/// Applies one [`EditOp`] to a network, returning the edited network.
/// Validation happens here — invalid geometry is a typed
/// [`EditError::Model`] carrying [`Conductor::try_new`]'s reason.
pub fn apply_op(network: &ConductorNetwork, op: &EditOp) -> Result<ConductorNetwork, EditError> {
    let mut list: Vec<Conductor> = network.conductors().to_vec();
    match *op {
        EditOp::Move { index, delta } => {
            let c = *checked(&list, index)?;
            list[index] =
                Conductor::try_new(shift(c.axis.a, delta), shift(c.axis.b, delta), c.radius)
                    .map_err(EditError::Model)?;
        }
        EditOp::MoveEnd { index, end, delta } => {
            let c = *checked(&list, index)?;
            let (a, b) = match end {
                ConductorEnd::A => (shift(c.axis.a, delta), c.axis.b),
                ConductorEnd::B => (c.axis.a, shift(c.axis.b, delta)),
            };
            list[index] = Conductor::try_new(a, b, c.radius).map_err(EditError::Model)?;
        }
        EditOp::Add { conductor } => {
            // Re-validate through the same gate: `Add` values may come
            // straight off the wire.
            list.push(
                Conductor::try_new(conductor.axis.a, conductor.axis.b, conductor.radius)
                    .map_err(EditError::Model)?,
            );
        }
        EditOp::Remove { index } => {
            checked(&list, index)?;
            list.remove(index);
        }
    }
    let mut out = ConductorNetwork::new();
    out.extend(list);
    Ok(out)
}

fn checked(list: &[Conductor], index: usize) -> Result<&Conductor, EditError> {
    list.get(index).ok_or(EditError::Model(
        "edit names a conductor index out of range",
    ))
}

fn shift(p: layerbem_geometry::Point3, d: [f64; 3]) -> layerbem_geometry::Point3 {
    layerbem_geometry::Point3::new(p.x + d[0], p.y + d[1], p.z + d[2])
}

/// Which route [`Study::apply_edit`] took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditPath {
    /// The delta was empty; nothing changed.
    Noop,
    /// Touched pairs re-integrated and the engine updated in place
    /// (rank-`2m` factor sweeps for Cholesky, an operator scatter for
    /// PCG).
    Incremental,
    /// Touched pairs re-integrated into the retained operator, then a
    /// full (pooled) refactorization — the cost model's fallback, still
    /// skipping the `O(M²)` re-assembly.
    Refactor,
    /// Topology changed: full re-assembly + re-factorization.
    Rebuild,
}

impl EditPath {
    /// The report/wire label of the route (`noop`, `incremental`,
    /// `refactor`, `rebuild`).
    pub fn label(&self) -> &'static str {
        match self {
            EditPath::Noop => "noop",
            EditPath::Incremental => "incremental",
            EditPath::Refactor => "refactor",
            EditPath::Rebuild => "rebuild",
        }
    }
}

/// What one [`Study::apply_edit`] call did and paid.
#[derive(Clone, Copy, Debug)]
pub struct EditReport {
    /// The route taken.
    pub path: EditPath,
    /// Elements whose geometry changed (0 for no-ops; the new element
    /// count for rebuilds).
    pub changed_elements: usize,
    /// Matrix rows the edit touched (0 unless moved).
    pub touched_rows: usize,
    /// Rank-1 sweeps applied to the factor (`2·touched_rows` on the
    /// incremental Cholesky path, 0 otherwise).
    pub update_rank: usize,
    /// Kernel runs: the classes integrated — over both the old and the
    /// new geometry of a moved edit, over the new mesh's triangle for a
    /// rebuild (its assembly's `cost.pairs_evaluated`). Every other pair
    /// reused its class's block.
    pub pairs_evaluated: usize,
    /// Seconds spent re-integrating/re-assembling.
    pub reintegrate_seconds: f64,
    /// Seconds spent updating or refactorizing the engine.
    pub update_seconds: f64,
}

impl Study {
    /// Assembles and factorizes `system` like
    /// [`GroundingSystem::prepare`], additionally retaining the edit
    /// state (mesh, kernel, and — for the direct engine — the assembled
    /// operator) that [`Study::apply_edit`] needs.
    pub(crate) fn prepare_editable(system: &GroundingSystem) -> Result<Study, PrepareError> {
        let opts = *system.options();
        if opts.formulation != Formulation::Galerkin || opts.backend != OperatorBackend::Dense {
            return Err(PrepareError::UnsupportedBackend(
                "incremental editing requires the dense Galerkin operator",
            ));
        }
        if opts.solver == SolverChoice::Lu {
            return Err(PrepareError::UnsupportedBackend(
                "incremental editing supports the Cholesky and conjugate-gradient solvers",
            ));
        }
        let report = Cow::Owned(system.assemble());
        let (mut study, matrix) = Study::from_galerkin(opts, system.kernel(), report, true)?;
        study.edit = Some(Box::new(EditState {
            mesh: system.mesh().clone(),
            kernel: system.kernel().clone(),
            matrix,
        }));
        Ok(study)
    }

    /// Applies a mesh delta to this prepared study in place.
    ///
    /// Moved elements re-integrate only the pairs involving a changed
    /// element, old and new geometry alike, as one pair set of the
    /// class-first integrator a full assembly uses (bit-identical
    /// entries), scatter the row/column deltas in the sequential pair
    /// order into the retained operator, and either update the Cholesky
    /// factor by `2m` rank-1 sweeps (when the cost model favors it and
    /// the intermediates stay SPD) or refactorize from the retained,
    /// already-updated operator — never re-assembling. Topology changes
    /// rebuild the operator from scratch. The result is **bitwise
    /// deterministic** across schedules × thread counts.
    ///
    /// # Errors
    /// [`EditError::NotEditable`] unless the study came from
    /// [`GroundingSystem::prepare_editable`]; [`EditError::Model`] when
    /// the edited mesh is empty, collapses an element onto one node or is
    /// disconnected (the study keeps its pre-edit state);
    /// [`EditError::Prepare`] when the edited operator cannot be
    /// factorized (the study is rebuilt from its pre-edit mesh, so it
    /// answers exactly as a fresh prepare of that mesh).
    pub fn apply_edit(&mut self, delta: MeshDelta) -> Result<EditReport, EditError> {
        if self.edit.is_none() {
            return Err(EditError::NotEditable(
                "prepared without edit state; use GroundingSystem::prepare_editable",
            ));
        }
        let MeshDelta { new_mesh, kind } = delta;
        // Anything but a no-op is about to change the engine — and a moved
        // edit can fail after its factor is already poisoned — so the
        // unit solution is retired before dispatch, never after.
        if kind != DeltaKind::Unchanged {
            self.retire_unit_solution();
        }
        match kind {
            DeltaKind::Unchanged => {
                self.spent.edits += 1;
                Ok(EditReport {
                    path: EditPath::Noop,
                    changed_elements: 0,
                    touched_rows: 0,
                    update_rank: 0,
                    pairs_evaluated: 0,
                    reintegrate_seconds: 0.0,
                    update_seconds: 0.0,
                })
            }
            DeltaKind::Moved {
                elements,
                touched_rows,
            } => self.edit_moved(new_mesh, &elements, touched_rows, ClassStore::default()),
            DeltaKind::Topology { .. } => self.edit_rebuild(new_mesh),
        }
    }

    /// The moved-elements route: delta re-integration + factor update.
    fn edit_moved(
        &mut self,
        new_mesh: Mesh,
        changed: &[usize],
        touched_rows: Vec<usize>,
        mut store: ClassStore,
    ) -> Result<EditReport, EditError> {
        let mut es = self.edit.take().expect("checked by apply_edit");
        let n = self.rhs.len();
        let mt = touched_rows.len();

        // Phase A — re-integrate every pair involving a changed element
        // under the old and the new geometry: one class-first pair set
        // over `old ‖ new` (elements `0..m`, then `m..2m`) that lists each
        // pair's old copy just before its new one. The scatter keeps the
        // old block and, on the new one, adds the delta in the sequential
        // pair order into one full-length column per touched row (entries
        // coupling two touched rows land in both columns; the
        // decomposition and the operator scatter both compensate).
        let t0 = Instant::now();
        let m = new_mesh.element_count();
        let mut geoms = element_geoms(&es.mesh);
        geoms.extend(element_geoms(&new_mesh));
        let pairs = edit_pairs(changed, m);
        let mut rindex: Vec<Option<usize>> = vec![None; n];
        for (j, &r) in touched_rows.iter().enumerate() {
            rindex[r] = Some(j);
        }
        let mut cols = vec![vec![0.0f64; n]; mt];
        let mut old: Block = [[0.0; 2]; 2];
        let (cost, _) = assemble_classes(
            &geoms,
            &es.kernel,
            pairs.iter().copied(),
            pairs.len(),
            &mut store,
            &self.opts.parallelism,
            |beta, alpha, block, _| {
                if beta < m {
                    old = *block;
                    return;
                }
                let (beta, alpha) = (beta - m, alpha - m);
                let mut d: Block = [[0.0; 2]; 2];
                for j in 0..2 {
                    for i in 0..2 {
                        d[j][i] = block[j][i] - old[j][i];
                    }
                }
                let nb = new_mesh.elements[beta].nodes;
                let na = new_mesh.elements[alpha].nodes;
                scatter_pair(nb, na, beta == alpha, &d, &mut |p, q, v| {
                    if let Some(j) = rindex[q] {
                        cols[j][p] += v;
                    }
                    if p != q {
                        if let Some(j) = rindex[p] {
                            cols[j][q] += v;
                        }
                    }
                });
            },
        );
        let reintegrate_seconds = t0.elapsed().as_secs_f64();
        self.spent.reintegrate += AssemblyCost {
            seconds: reintegrate_seconds,
            ..cost
        };

        // Phase B — route the delta into the engine: scatter into the
        // retained operator (always, so fallbacks never re-assemble),
        // then rank-2m sweeps or pooled refactorization.
        let t1 = Instant::now();
        let mut update_rank = 0usize;
        let path;
        if matches!(self.engine, Engine::Pcg(_)) {
            let Engine::Pcg(matrix) = &mut self.engine else {
                unreachable!("matched above")
            };
            scatter_cols(matrix, &touched_rows, &rindex, &cols);
            path = EditPath::Incremental;
        } else {
            let matrix = es
                .matrix
                .as_mut()
                .expect("editable Cholesky studies retain the operator");
            scatter_cols(matrix, &touched_rows, &rindex, &cols);
            let mut updated = false;
            if incremental_worthwhile(n, mt) {
                let Engine::Cholesky(f) = &mut self.engine else {
                    unreachable!("prepare_editable admits only Cholesky and PCG engines")
                };
                let modification = SymModification::new(n, touched_rows.clone(), cols);
                match apply_sym_modification(f, &modification) {
                    Ok(rank) => {
                        update_rank = rank;
                        updated = true;
                    }
                    // The factor left the SPD cone mid-sweep: it is
                    // poisoned, but the retained operator is exact —
                    // refactorize from it below.
                    Err(UpdateError::Indefinite { .. }) => {}
                    Err(e @ UpdateError::DimensionMismatch { .. }) => {
                        unreachable!("dimensions fixed by construction: {e}")
                    }
                }
            }
            if updated {
                path = EditPath::Incremental;
            } else {
                match Study::galerkin_engine(&self.opts, Cow::Borrowed(&*matrix)) {
                    Ok((engine, factorizations)) => {
                        self.engine = engine;
                        self.spent.factorizations += factorizations;
                        path = EditPath::Refactor;
                    }
                    Err(e) => {
                        // The edited operator is not SPD and the factor
                        // is poisoned. The move path keeps no copy of the
                        // pre-edit state (every move would pay for it),
                        // so rebuild the pre-edit mesh — still `es.mesh`
                        // — from the retained kernel: the study then
                        // answers exactly as a fresh prepare of it.
                        let old_mesh = es.mesh.clone();
                        self.edit = Some(es);
                        self.rebuild(old_mesh)?;
                        return Err(EditError::Prepare(e));
                    }
                }
            }
        }
        let update_seconds = t1.elapsed().as_secs_f64();

        // The unit-GPR right-hand side is a pure per-element length
        // integral: recompute it whole (O(M), identical to a fresh
        // assembly's).
        let rhs = galerkin_rhs(&new_mesh);
        self.nu = rhs.clone();
        self.rhs = rhs;
        es.mesh = new_mesh;
        self.spent.edits += 1;
        self.spent.update_seconds += update_seconds;
        self.edit = Some(es);
        Ok(EditReport {
            path,
            changed_elements: changed.len(),
            touched_rows: mt,
            update_rank,
            pairs_evaluated: cost.pairs_evaluated,
            reintegrate_seconds,
            update_seconds,
        })
    }

    /// The topology-change route: full re-assembly + re-factorization
    /// with the retained kernel and options.
    fn edit_rebuild(&mut self, new_mesh: Mesh) -> Result<EditReport, EditError> {
        if let Some(why) = mesh_defect(&new_mesh) {
            return Err(EditError::Model(why));
        }
        let elements = new_mesh.element_count();
        let (cost, update_seconds) = self.rebuild(new_mesh)?;
        Ok(EditReport {
            path: EditPath::Rebuild,
            changed_elements: elements,
            touched_rows: 0,
            update_rank: 0,
            pairs_evaluated: cost.pairs_evaluated,
            reintegrate_seconds: cost.seconds,
            update_seconds,
        })
    }

    /// Re-assembles and re-factorizes `mesh` with the retained kernel and
    /// options: the study becomes a fresh prepare of `mesh` that inherits
    /// this one's history plus one edit. Returns the assembly's cost and
    /// the factor seconds; on failure the study keeps its state.
    fn rebuild(&mut self, mesh: Mesh) -> Result<(AssemblyCost, f64), PrepareError> {
        let mut es = self.edit.take().expect("checked by apply_edit");
        let report = assemble_galerkin(&mesh, &es.kernel, &self.opts);
        let cost = report.cost;
        let retain = es.matrix.is_some();
        let (mut rebuilt, matrix) =
            match Study::from_galerkin(self.opts, &es.kernel, Cow::Owned(report), retain) {
                Ok(built) => built,
                Err(e) => {
                    self.edit = Some(es);
                    return Err(e);
                }
            };
        let update_seconds = rebuilt.spent.factor_seconds;
        es.matrix = matrix;
        es.mesh = mesh;
        // A rebuild is a freshly prepared study that inherits this one's
        // history: its assembly and factorization add to the
        // prepare-phase totals (not the incremental-edit phases), the
        // column profile is the new assembly's.
        rebuilt.spent += self.spent;
        rebuilt.spent.edits += 1;
        rebuilt.solves = std::mem::take(&mut self.solves);
        rebuilt.edit = Some(es);
        *self = rebuilt;
        Ok((cost, update_seconds))
    }

    /// The mesh this editable study currently represents (`None` for
    /// studies prepared without edit state).
    pub fn edited_mesh(&self) -> Option<&Mesh> {
        self.edit.as_deref().map(|e| &e.mesh)
    }
}

/// Scatters the delta columns into the packed operator. Entries coupling
/// two touched rows appear (with the full value) in both columns, so they
/// are halved here — the exact mirror of the rank-1 decomposition's
/// halving — while the diagonal of a touched row appears in its own
/// column only and lands whole.
fn scatter_cols(
    matrix: &mut SymMatrix,
    rows: &[usize],
    rindex: &[Option<usize>],
    cols: &[Vec<f64>],
) {
    for (j, col) in cols.iter().enumerate() {
        let r = rows[j];
        for (i, &v) in col.iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            let v = if i != r && rindex[i].is_some() {
                0.5 * v
            } else {
                v
            };
            matrix.add(i, r, v);
        }
    }
}

/// The pair set of a moved edit over `old ‖ new` (elements `0..m`, then
/// `m..2m`): every pair `(β, α)`, `β ≤ α`, with at least one changed
/// element, in the sequential pair order, each as `(β, α)` followed by
/// `(β + m, α + m)`. A changed `β` pairs with every `α ∈ β..m`; an
/// unchanged one with the changed `α ≥ β`.
fn edit_pairs(changed: &[usize], m: usize) -> Vec<(usize, usize)> {
    let mut is_changed = vec![false; m];
    for &e in changed {
        is_changed[e] = true;
    }
    let mut pairs = Vec::new();
    let mut push = |beta: usize, alpha: usize| {
        pairs.push((beta, alpha));
        pairs.push((beta + m, alpha + m));
    };
    for (beta, &beta_changed) in is_changed.iter().enumerate() {
        if beta_changed {
            (beta..m).for_each(|alpha| push(beta, alpha));
        } else {
            let from = changed.partition_point(|&a| a < beta);
            changed[from..].iter().for_each(|&alpha| push(beta, alpha));
        }
    }
    pairs
}

/// An interactive editing session: a private editable [`Study`] plus the
/// conductor network it currently represents, advanced one [`EditOp`] at
/// a time. This is the object the deck `edit` stanzas replay and a serve
/// connection holds behind its `{"op":"edit"}` operation — never shared,
/// so cached `Arc<Study>` entries stay immutable; publish a finished
/// session's [`Study::frozen_clone`] instead.
pub struct EditSession {
    network: ConductorNetwork,
    mesh_options: MeshOptions,
    study: Study,
}

impl EditSession {
    /// Meshes and prepares `network` as an editable study.
    pub fn open(
        network: ConductorNetwork,
        soil: &SoilModel,
        mesh_options: MeshOptions,
        opts: SolveOptions,
    ) -> Result<EditSession, EditError> {
        let mesh = Mesher::new(mesh_options).mesh(&network);
        let system = GroundingSystem::try_new(mesh, soil, opts).map_err(EditError::Model)?;
        let study = system.prepare_editable()?;
        Ok(EditSession {
            network,
            mesh_options,
            study,
        })
    }

    /// [`open`](Self::open)s a session on `spec`'s base geometry and
    /// replays `edits` in order — what a deck with `edit` stanzas means,
    /// for the CAD pipeline and the serve `edit` op alike. Returns the
    /// session with one report per replayed edit.
    pub fn replay(
        spec: &StudySpec<'_>,
        edits: &[EditOp],
    ) -> Result<(EditSession, Vec<EditReport>), EditError> {
        let mut session = Self::open(
            spec.network.clone(),
            spec.soil,
            spec.mesh_options,
            spec.opts,
        )?;
        let reports = edits
            .iter()
            .map(|op| session.apply(op))
            .collect::<Result<_, _>>()?;
        Ok((session, reports))
    }

    /// Applies one edit: re-mesh the edited network, diff against the
    /// study's current mesh, and [`Study::apply_edit`] the delta. The
    /// session state advances only on success.
    pub fn apply(&mut self, op: &EditOp) -> Result<EditReport, EditError> {
        let network = apply_op(&self.network, op)?;
        let new_mesh = Mesher::new(self.mesh_options).mesh(&network);
        let old_mesh = &self
            .study
            .edit
            .as_deref()
            .expect("sessions hold editable studies")
            .mesh;
        let delta = MeshDelta::diff(old_mesh, &new_mesh);
        let report = self.study.apply_edit(delta)?;
        self.network = network;
        Ok(report)
    }

    /// The session's private study, for answering scenarios mid-session.
    pub fn study(&self) -> &Study {
        &self.study
    }

    /// The network the session currently represents.
    pub fn network(&self) -> &ConductorNetwork {
        &self.network
    }

    /// Consumes the session, returning the study (still editable).
    pub fn into_study(self) -> Study {
        self.study
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::Scenario;
    use layerbem_geometry::{grids, Point3};

    fn small_grid() -> ConductorNetwork {
        // A 2×2-cell grid, coarse mesh: big enough to have interior
        // couplings, small enough for fast tests.
        grids::rectangular_grid(grids::RectGridSpec {
            origin: (0.0, 0.0),
            width: 10.0,
            height: 10.0,
            nx: 2,
            ny: 2,
            depth: 0.6,
            radius: 0.007,
        })
    }

    /// The small grid plus two corner rods. Rod bottoms are free
    /// (degree-1) nodes, so moving them preserves topology — the edit the
    /// incremental path is built for. Grid conductors share both
    /// endpoints with neighbors; moving one is a topology change.
    fn grid_with_rods() -> (ConductorNetwork, usize, usize) {
        let mut net = small_grid();
        let r0 = net.len();
        net.add(layerbem_geometry::conductor::ground_rod(
            Point3::new(0.0, 0.0, 0.6),
            1.5,
            0.007,
        ));
        let r1 = net.len();
        net.add(layerbem_geometry::conductor::ground_rod(
            Point3::new(10.0, 10.0, 0.6),
            1.5,
            0.007,
        ));
        (net, r0, r1)
    }

    fn mesh_opts() -> MeshOptions {
        MeshOptions {
            max_element_length: 2.6,
        }
    }

    fn full_prepare(network: &ConductorNetwork, opts: SolveOptions) -> Study {
        let mesh = Mesher::new(mesh_opts()).mesh(network);
        GroundingSystem::new(mesh, &layerbem_soil::SoilModel::uniform(0.016), opts)
            .prepare()
            .expect("prepare")
    }

    fn cholesky_opts() -> SolveOptions {
        SolveOptions {
            solver: SolverChoice::Cholesky,
            ..Default::default()
        }
    }

    #[test]
    fn diff_classifies_noop_move_and_topology() {
        let (net, rod, _) = grid_with_rods();
        let mesh = Mesher::new(mesh_opts()).mesh(&net);
        assert_eq!(*MeshDelta::diff(&mesh, &mesh).kind(), DeltaKind::Unchanged);

        // Move a rod's free bottom end: topology preserved, a few
        // elements changed.
        let moved = apply_op(
            &net,
            &EditOp::MoveEnd {
                index: rod,
                end: ConductorEnd::B,
                delta: [0.0, 0.0, 0.1],
            },
        )
        .expect("valid edit");
        let mesh2 = Mesher::new(mesh_opts()).mesh(&moved);
        match MeshDelta::diff(&mesh, &mesh2).kind() {
            DeltaKind::Moved {
                elements,
                touched_rows,
            } => {
                assert!(!elements.is_empty());
                assert!(elements.len() < mesh.element_count());
                assert!(!touched_rows.is_empty());
                assert!(touched_rows.windows(2).all(|w| w[0] < w[1]));
            }
            other => panic!("expected Moved, got {other:?}"),
        }

        // Adding a rod changes the element count.
        let added = apply_op(
            &net,
            &EditOp::Add {
                conductor: layerbem_geometry::conductor::ground_rod(
                    Point3::new(5.0, 5.0, 0.6),
                    1.5,
                    0.007,
                ),
            },
        )
        .expect("valid add");
        let mesh3 = Mesher::new(mesh_opts()).mesh(&added);
        match MeshDelta::diff(&mesh, &mesh3).kind() {
            DeltaKind::Topology { added, removed } => {
                assert!(*added > 0);
                assert_eq!(*removed, 0);
            }
            other => panic!("expected Topology, got {other:?}"),
        }
    }

    #[test]
    fn apply_op_validates_before_building() {
        let net = small_grid();
        let count = net.len();
        assert_eq!(
            apply_op(&net, &EditOp::Remove { index: count }).err(),
            Some(EditError::Model(
                "edit names a conductor index out of range"
            ))
        );
        // Lifting a conductor above the surface is rejected, not a panic.
        let lift = EditOp::Move {
            index: 0,
            delta: [0.0, 0.0, -10.0],
        };
        assert!(matches!(
            apply_op(&net, &lift),
            Err(EditError::Model(m)) if m.contains("buried")
        ));
        let ok = apply_op(&net, &EditOp::Remove { index: 0 }).expect("in range");
        assert_eq!(ok.len(), count - 1);
    }

    #[test]
    fn a_move_end_that_collapses_a_rod_is_a_model_error() {
        // Shortening a 1.5 m rod to 0.5 µm leaves a valid conductor whose
        // ends merge into one mesh node.
        let (net, rod, _) = grid_with_rods();
        let soil = layerbem_soil::SoilModel::uniform(0.016);
        let mut session =
            EditSession::open(net.clone(), &soil, mesh_opts(), cholesky_opts()).expect("open");
        let s = Scenario::gpr(10_000.0);
        let before = session.study().solve(&s).expect("solve");
        let fold = EditOp::MoveEnd {
            index: rod,
            end: ConductorEnd::B,
            delta: [0.0, 0.0, -1.4999995],
        };
        let err = session.apply(&fold).expect_err("collapsed rod");
        assert!(
            matches!(err, EditError::Model(why) if why.contains("collapse onto one node")),
            "{err}"
        );
        // The session keeps its pre-edit network and answer.
        assert_eq!(session.network().len(), net.len());
        assert_eq!(session.study().profile().edits, 0);
        let after = session.study().solve(&s).expect("solve");
        assert_eq!(after.leakage, before.leakage);
        assert_eq!(after.equivalent_resistance, before.equivalent_resistance);
    }

    #[test]
    fn non_editable_studies_reject_edits() {
        let net = small_grid();
        let mut study = full_prepare(&net, cholesky_opts());
        let mesh = Mesher::new(mesh_opts()).mesh(&net);
        let err = study
            .apply_edit(MeshDelta::diff(&mesh, &mesh))
            .expect_err("not editable");
        assert!(matches!(err, EditError::NotEditable(_)));
    }

    #[test]
    fn incremental_move_agrees_with_full_reprepare() {
        let (net, rod, _) = grid_with_rods();
        let mut session = EditSession::open(
            net.clone(),
            &layerbem_soil::SoilModel::uniform(0.016),
            mesh_opts(),
            cholesky_opts(),
        )
        .expect("open");
        let op = EditOp::MoveEnd {
            index: rod,
            end: ConductorEnd::B,
            delta: [0.0, 0.0, 0.15],
        };
        let report = session.apply(&op).expect("edit");
        assert_eq!(report.path, EditPath::Incremental);
        assert!(report.update_rank > 0);
        assert_eq!(report.update_rank, 2 * report.touched_rows);
        assert!(report.pairs_evaluated > 0);

        // Full re-prepare of the edited geometry: the oracle.
        let edited = apply_op(&net, &op).expect("edit");
        let oracle = full_prepare(&edited, cholesky_opts());
        let s = Scenario::fault_current(25_000.0);
        let a = session.study().solve(&s).expect("incremental solve");
        let b = oracle.solve(&s).expect("oracle solve");
        let rel = (a.gpr - b.gpr).abs() / b.gpr;
        assert!(rel <= 1e-8, "incremental vs full GPR rel {rel:.3e}");
        let relr =
            (a.equivalent_resistance - b.equivalent_resistance).abs() / b.equivalent_resistance;
        assert!(relr <= 1e-8, "Req rel {relr:.3e}");

        // Profile counters moved: the move paid kernel work, recorded
        // beside the assembly it did not repeat.
        let p = session.study().profile();
        assert_eq!(p.edits, 1);
        assert_eq!(
            p.assembly.assemblies, 1,
            "incremental edits do not re-assemble"
        );
        assert!(p.update_seconds >= 0.0);
        assert!(
            p.reintegrate.kernel.terms > 0,
            "re-integration counts its work"
        );
        assert_eq!(p.reintegrate.seconds, report.reintegrate_seconds);
        assert!(p.reintegrate.kernel_seconds <= p.reintegrate.seconds);
        // Kernel runs are classes over both geometries; every changed
        // pair is placed twice, old and new.
        assert_eq!(p.reintegrate.pairs_evaluated, report.pairs_evaluated);
        assert!(report.pairs_evaluated <= p.reintegrate.pairs);
        assert_eq!(p.reintegrate.pairs % 2, 0);
        assert_eq!(
            p.assembly.kernel.terms,
            full_prepare(&net, cholesky_opts()).total_terms()
        );
    }

    #[test]
    fn pcg_sessions_take_the_incremental_path_too() {
        let (net, _, rod) = grid_with_rods();
        let mut session = EditSession::open(
            net.clone(),
            &layerbem_soil::SoilModel::uniform(0.016),
            mesh_opts(),
            SolveOptions::default(),
        )
        .expect("open");
        let op = EditOp::MoveEnd {
            index: rod,
            end: ConductorEnd::B,
            delta: [0.1, 0.0, 0.2],
        };
        let report = session.apply(&op).expect("edit");
        assert_eq!(report.path, EditPath::Incremental);
        assert_eq!(report.update_rank, 0, "PCG has no factor to update");
        let edited = apply_op(&net, &op).expect("edit");
        let oracle = full_prepare(&edited, SolveOptions::default());
        let s = Scenario::gpr(10_000.0);
        let a = session.study().solve(&s).expect("solve");
        let b = oracle.solve(&s).expect("solve");
        let rel =
            (a.equivalent_resistance - b.equivalent_resistance).abs() / b.equivalent_resistance;
        assert!(rel <= 1e-8, "rel {rel:.3e}");
    }

    #[test]
    fn topology_edit_rebuilds_and_matches_full_prepare() {
        let net = small_grid();
        let mut session = EditSession::open(
            net.clone(),
            &layerbem_soil::SoilModel::uniform(0.016),
            mesh_opts(),
            cholesky_opts(),
        )
        .expect("open");
        let op = EditOp::Add {
            conductor: layerbem_geometry::conductor::ground_rod(
                Point3::new(0.0, 0.0, 0.6),
                1.5,
                0.007,
            ),
        };
        let before = session.study().profile().assembly.pairs_evaluated;
        let report = session.apply(&op).expect("edit");
        assert_eq!(report.path, EditPath::Rebuild);
        // The rebuild reports the kernel runs its assembly recorded.
        assert_eq!(
            report.pairs_evaluated,
            session.study().profile().assembly.pairs_evaluated - before
        );
        let edited = apply_op(&net, &op).expect("edit");
        let oracle = full_prepare(&edited, cholesky_opts());
        let s = Scenario::gpr(5_000.0);
        let a = session.study().solve(&s).expect("solve");
        let b = oracle.solve(&s).expect("solve");
        // A rebuild runs the identical assembly + factorization: bitwise.
        assert_eq!(a.leakage, b.leakage);
        assert_eq!(a.equivalent_resistance, b.equivalent_resistance);
        // The profile sums both assemblies, counters and seconds alike.
        let p = session.study().profile();
        assert_eq!(p.assembly.assemblies, 2, "rebuild is a second assembly");
        assert_eq!(p.edits, 1);
        let base = full_prepare(&net, cholesky_opts())
            .profile()
            .assembly
            .kernel;
        let last = oracle.profile().assembly.kernel;
        assert_eq!(p.assembly.kernel.terms, base.terms + last.terms);
        assert_eq!(
            p.assembly.kernel.lane_slots,
            base.lane_slots + last.lane_slots
        );
        assert_eq!(
            p.assembly.kernel.lane_points,
            base.lane_points + last.lane_points
        );
        assert!(p.assembly.kernel.lane_points <= p.assembly.kernel.lane_slots);
        assert_eq!(p.factorizations, 2);
        // The column profile is the latest assembly's.
        assert_eq!(session.study().column_terms(), oracle.column_terms());
    }

    #[test]
    fn sequential_edits_compound() {
        let (net, rod0, rod1) = grid_with_rods();
        let mut session = EditSession::open(
            net.clone(),
            &layerbem_soil::SoilModel::uniform(0.016),
            mesh_opts(),
            cholesky_opts(),
        )
        .expect("open");
        let ops = [
            EditOp::MoveEnd {
                index: rod0,
                end: ConductorEnd::B,
                delta: [0.0, 0.0, 0.1],
            },
            EditOp::MoveEnd {
                index: rod1,
                end: ConductorEnd::B,
                delta: [0.2, 0.0, 0.05],
            },
            EditOp::MoveEnd {
                index: rod0,
                end: ConductorEnd::B,
                delta: [0.0, 0.0, -0.1],
            },
        ];
        let mut net2 = net.clone();
        for op in &ops {
            session.apply(op).expect("edit");
            net2 = apply_op(&net2, op).expect("edit");
        }
        let oracle = full_prepare(&net2, cholesky_opts());
        let s = Scenario::fault_current(25_000.0);
        let a = session.study().solve(&s).expect("solve");
        let b = oracle.solve(&s).expect("solve");
        let rel = (a.gpr - b.gpr).abs() / b.gpr;
        assert!(rel <= 1e-8, "3-edit chain GPR rel {rel:.3e}");
        assert_eq!(session.study().profile().edits, 3);
    }

    #[test]
    fn editable_studies_account_the_retained_operator() {
        let net = small_grid();
        let session = EditSession::open(
            net.clone(),
            &layerbem_soil::SoilModel::uniform(0.016),
            mesh_opts(),
            cholesky_opts(),
        )
        .expect("open");
        let editable = session.study();
        let frozen = editable.frozen_clone();
        let dof = editable.dof();
        let packed = 8 * dof * (dof + 1) / 2;
        // Editable: factor + retained operator. Frozen: factor only.
        assert_eq!(editable.resident_bytes(), frozen.resident_bytes() + packed);
        // The frozen snapshot solves bitwise identically.
        let s = Scenario::gpr(1_000.0);
        assert_eq!(
            editable.solve(&s).expect("solve").leakage,
            frozen.solve(&s).expect("solve").leakage
        );
        // And is no longer editable.
        let mesh = Mesher::new(mesh_opts()).mesh(&net);
        let mut frozen = frozen;
        assert!(matches!(
            frozen.apply_edit(MeshDelta::diff(&mesh, &mesh)),
            Err(EditError::NotEditable(_))
        ));
    }

    #[test]
    fn prepare_editable_rejects_unsupported_configurations() {
        let net = small_grid();
        for bad in [
            SolveOptions {
                solver: SolverChoice::Lu,
                ..Default::default()
            },
            SolveOptions {
                formulation: Formulation::Collocation,
                solver: SolverChoice::Lu,
                ..Default::default()
            },
            SolveOptions::default().with_backend(OperatorBackend::hierarchical()),
        ] {
            let err = match EditSession::open(
                net.clone(),
                &layerbem_soil::SoilModel::uniform(0.016),
                mesh_opts(),
                bad,
            ) {
                Err(e) => e,
                Ok(_) => panic!("must reject {bad:?}"),
            };
            assert!(
                matches!(err, EditError::Prepare(PrepareError::UnsupportedBackend(_))),
                "{err}"
            );
        }
    }

    #[test]
    fn edit_pairs_cover_each_changed_pair_once_per_geometry() {
        let m = 7;
        let changed = vec![2usize, 3, 6];
        let pairs = edit_pairs(&changed, m);
        assert_eq!(pairs.len() % 2, 0);
        let mut old = Vec::new();
        for two in pairs.chunks(2) {
            let (beta, alpha) = two[0];
            assert!(beta <= alpha && alpha < m, "old copy ({beta}, {alpha})");
            assert_eq!(two[1], (beta + m, alpha + m), "new copy follows the old");
            old.push((beta, alpha));
        }
        // Sequential pair order, hence each pair once.
        assert!(old.windows(2).all(|w| w[0] < w[1]), "{old:?}");
        let is_changed = |e: usize| changed.contains(&e);
        let expected: Vec<(usize, usize)> = (0..m)
            .flat_map(|beta| (beta..m).map(move |alpha| (beta, alpha)))
            .filter(|&(beta, alpha)| is_changed(beta) || is_changed(alpha))
            .collect();
        assert_eq!(old, expected);
    }

    /// The per-pair oracle of the move route: every changed pair
    /// integrated by `pair_block` under the old and the new geometry, its
    /// delta scattered in the sequential pair order into one column per
    /// touched row, and the columns into `matrix`.
    fn reintegrate_pair_by_pair(
        matrix: &mut SymMatrix,
        old: &Mesh,
        new: &Mesh,
        kernel: &SoilKernel,
    ) {
        use crate::assembly::{pair_block, OuterQuadrature};
        use crate::kernel::KernelBatch;
        let DeltaKind::Moved {
            elements,
            touched_rows,
        } = MeshDelta::diff(old, new).kind
        else {
            panic!("a moved edit")
        };
        let (go, gn) = (element_geoms(old), element_geoms(new));
        let quad = OuterQuadrature::default();
        let mut batch = KernelBatch::new();
        let n = new.dof();
        let mut rindex: Vec<Option<usize>> = vec![None; n];
        for (j, &r) in touched_rows.iter().enumerate() {
            rindex[r] = Some(j);
        }
        let mut cols = vec![vec![0.0f64; n]; touched_rows.len()];
        let m = new.element_count();
        for beta in 0..m {
            for alpha in beta..m {
                if !elements.contains(&beta) && !elements.contains(&alpha) {
                    continue;
                }
                let (ob, _) = pair_block(&go[beta], &go[alpha], kernel, &quad, &mut batch);
                let (nb, _) = pair_block(&gn[beta], &gn[alpha], kernel, &quad, &mut batch);
                let mut d: Block = [[0.0; 2]; 2];
                for j in 0..2 {
                    for i in 0..2 {
                        d[j][i] = nb[j][i] - ob[j][i];
                    }
                }
                let (eb, ea) = (new.elements[beta].nodes, new.elements[alpha].nodes);
                scatter_pair(eb, ea, beta == alpha, &d, &mut |p, q, v| {
                    if let Some(j) = rindex[q] {
                        cols[j][p] += v;
                    }
                    if p != q {
                        if let Some(j) = rindex[p] {
                            cols[j][q] += v;
                        }
                    }
                });
            }
        }
        scatter_cols(matrix, &touched_rows, &rindex, &cols);
    }

    /// The operator an editable study retains: the PCG engine's own, or
    /// the Cholesky study's copy beside its factor.
    fn retained(study: &Study) -> &SymMatrix {
        match &study.engine {
            Engine::Pcg(matrix) => matrix,
            _ => study
                .edit
                .as_deref()
                .and_then(|es| es.matrix.as_ref())
                .expect("editable Cholesky studies retain the operator"),
        }
    }

    fn bits(matrix: &SymMatrix) -> Vec<u64> {
        matrix.packed().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn moved_edits_keep_the_per_pair_oracle_bits() {
        use layerbem_parfor::{Schedule, ThreadPool};
        let (net, r0, r1) = grid_with_rods();
        let soil = layerbem_soil::SoilModel::uniform(0.016);
        // splitmix64: a seeded, reproducible walk of the two rod bottoms.
        let mut state = 0x5eed_u64;
        let mut unit = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        // Each move sends a rod's bottom to a random point within 1 m of
        // the spot below its top, so the deltas are as large as the
        // entries they update; the rod stays one element.
        let below_tops = [[0.0, 0.0, 2.1], [10.0, 10.0, 2.1]];
        let mut bottoms = below_tops;
        let ops: Vec<EditOp> = (0..24)
            .map(|k| {
                let rod = k % 2;
                let [x, y, z] = below_tops[rod];
                let target = [x + 2.0 * unit(), y + 2.0 * unit(), z + 0.6 * unit()];
                let delta: [f64; 3] = std::array::from_fn(|i| target[i] - bottoms[rod][i]);
                (0..3).for_each(|i| bottoms[rod][i] += delta[i]);
                EditOp::MoveEnd {
                    index: [r0, r1][rod],
                    end: ConductorEnd::B,
                    delta,
                }
            })
            .collect();
        for solver in [SolverChoice::Cholesky, SolverChoice::ConjugateGradient] {
            // The production store, and a one-class store that makes
            // every class its own band.
            for (threads, budget) in [(1, None), (3, None), (1, Some(1)), (3, Some(1))] {
                let opts = SolveOptions {
                    solver,
                    ..Default::default()
                }
                .with_parallelism(ThreadPool::new(threads), Schedule::dynamic(1));
                let mut study = EditSession::open(net.clone(), &soil, mesh_opts(), opts)
                    .expect("open")
                    .into_study();
                let kernel = study.edit.as_deref().expect("editable").kernel.clone();
                // Both sides start from a zero operator, so the retained
                // bits are the summed deltas themselves, where a changed
                // summation order shows. The factor never reads it here:
                // every move takes the rank-k sweeps.
                let mut oracle = SymMatrix::zeros(study.dof());
                match &mut study.engine {
                    Engine::Pcg(matrix) => *matrix = oracle.clone(),
                    _ => study.edit.as_mut().expect("editable").matrix = Some(oracle.clone()),
                }
                let mut network = net.clone();
                for (k, op) in ops.iter().enumerate() {
                    network = apply_op(&network, op).expect("valid move");
                    let new_mesh = Mesher::new(mesh_opts()).mesh(&network);
                    let old_mesh = study.edited_mesh().expect("editable").clone();
                    reintegrate_pair_by_pair(&mut oracle, &old_mesh, &new_mesh, &kernel);
                    let DeltaKind::Moved {
                        elements,
                        touched_rows,
                    } = MeshDelta::diff(&old_mesh, &new_mesh).kind
                    else {
                        panic!("a moved edit")
                    };
                    let report = study
                        .edit_moved(
                            new_mesh,
                            &elements,
                            touched_rows,
                            budget.map_or_else(ClassStore::default, ClassStore::with_capacity),
                        )
                        .expect("edit");
                    assert_eq!(report.path, EditPath::Incremental);
                    assert!(
                        bits(retained(&study)) == bits(&oracle),
                        "{solver:?}, {threads} threads, budget {budget:?}: move {k} left the oracle's bits"
                    );
                }
            }
        }
    }
}
