//! Post-processing: surface potentials and safety voltages.
//!
//! "The additional cost of computing potential at any given point
//! (normally at the earth surface) by means of (4.2) only requires O(Mp)
//! operations … However, if it is necessary to compute potentials at a
//! large number of points (i.e. to draw contours), computing time may be
//! important" (paper §4.3) — which is why the point sweep is the second
//! parallelization target. [`PotentialMap`] computes a rectangular grid of
//! earth-surface potentials (Figs 5.2 and 5.4) in parallel, and the
//! voltage extractors derive the IEEE-80 design quantities: touch, step
//! and mesh voltages.
//!
//! Every potential here comes from one evaluator, [`surface_potentials`]:
//! the point list is cut into fixed tiles of [`TILE`] consecutive points,
//! and each tile rides the batched lane kernel
//! ([`SoilKernel::element_potential_batch`]) once per source element.
//! The unit of parallel dispatch is therefore the **tile**, not the
//! point: a schedule's chunk size counts tiles.

use std::fmt::Write as _;
use std::time::Instant;

use layerbem_geometry::{Mesh, Point3};
use layerbem_parfor::{Schedule, ThreadPool};

use crate::assembly::element_geoms;
use crate::kernel::{KernelBatch, KernelCost, SoilKernel};
use crate::system::GroundingSolution;

/// Points per tile of [`surface_potentials`].
///
/// A constant, not an option. Measured on the two-layer Barberá 31×46
/// map (one core, best of 5, repeated on a host whose clock moves ±20 %):
/// 0.38–0.47 s at 8 points per tile, 0.27–0.43 s at 32, 0.30–0.32 s at
/// 128, for 41.8 M / 41.4 M / 41.0 M series terms — eight full lane
/// chunks amortize the per-element set-up, nothing is gained beyond
/// that, and the collective series stop (which runs a tile as far as its
/// slowest point) wastes nothing measurable at any of the three. 32
/// keeps small maps splitting into several tiles for the pool.
pub const TILE: usize = 32;

/// A rectangular grid of potentials on the earth surface.
#[derive(Clone, Debug, Default)]
pub struct PotentialMap {
    /// X coordinates of the columns (m).
    pub xs: Vec<f64>,
    /// Y coordinates of the rows (m).
    pub ys: Vec<f64>,
    /// Potentials in row-major order (`v[j * xs.len() + i]`), volts.
    pub values: Vec<f64>,
    /// Kernel work the map consumed (series terms, lane occupancy).
    pub cost: KernelCost,
    /// Wall time of [`PotentialMap::compute`], seconds.
    pub seconds: f64,
}

/// Specification of a potential sweep window.
#[derive(Clone, Copy, Debug)]
pub struct MapSpec {
    /// Window `[x0, x1] × [y0, y1]` on the surface.
    pub x_range: (f64, f64),
    /// See `x_range`.
    pub y_range: (f64, f64),
    /// Number of samples along x.
    pub nx: usize,
    /// Number of samples along y.
    pub ny: usize,
}

/// Why a map window was refused by [`MapSpec::new`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MapSpecError {
    /// A window bound is NaN or infinite.
    NonFiniteWindow,
    /// The window is empty or backwards along `axis` (`lo >= hi`).
    EmptyWindow {
        /// `'x'` or `'y'`.
        axis: char,
        /// Lower bound as given.
        lo: f64,
        /// Upper bound as given.
        hi: f64,
    },
    /// Fewer than 2 samples along an axis (a map interpolates between
    /// its window bounds).
    TooFewSamples {
        /// Samples along x as given.
        nx: usize,
        /// Samples along y as given.
        ny: usize,
    },
}

impl std::fmt::Display for MapSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapSpecError::NonFiniteWindow => write!(f, "map window bounds must be finite"),
            MapSpecError::EmptyWindow { axis, lo, hi } => {
                write!(f, "map window is empty along {axis}: need {lo} < {hi}")
            }
            MapSpecError::TooFewSamples { nx, ny } => {
                write!(f, "map needs at least 2×2 samples, got {nx}×{ny}")
            }
        }
    }
}

impl std::error::Error for MapSpecError {}

impl MapSpec {
    /// A checked window: finite bounds, `x0 < x1`, `y0 < y1`, at least
    /// 2×2 samples. Front ends build their spec here so a bad window is
    /// refused before any study is prepared.
    pub fn new(
        x_range: (f64, f64),
        y_range: (f64, f64),
        nx: usize,
        ny: usize,
    ) -> Result<MapSpec, MapSpecError> {
        let bounds = [x_range.0, x_range.1, y_range.0, y_range.1];
        if !bounds.iter().all(|b| b.is_finite()) {
            return Err(MapSpecError::NonFiniteWindow);
        }
        for (axis, (lo, hi)) in [('x', x_range), ('y', y_range)] {
            if lo >= hi {
                return Err(MapSpecError::EmptyWindow { axis, lo, hi });
            }
        }
        if nx < 2 || ny < 2 {
            return Err(MapSpecError::TooFewSamples { nx, ny });
        }
        Ok(MapSpec {
            x_range,
            y_range,
            nx,
            ny,
        })
    }
}

impl PotentialMap {
    /// Computes the surface potential map for a solved grounding system,
    /// distributing **tiles** of [`TILE`] consecutive row-major samples
    /// over the pool under the given schedule (its chunk size counts
    /// tiles). Values are bit-identical across schedules × thread counts.
    pub fn compute(
        mesh: &Mesh,
        kernel: &SoilKernel,
        solution: &GroundingSolution,
        spec: &MapSpec,
        pool: &ThreadPool,
        schedule: Schedule,
    ) -> PotentialMap {
        assert!(
            spec.nx >= 2 && spec.ny >= 2,
            "map needs at least 2×2 samples"
        );
        let t0 = Instant::now();
        let xs: Vec<f64> = (0..spec.nx)
            .map(|i| {
                spec.x_range.0 + (spec.x_range.1 - spec.x_range.0) * i as f64 / (spec.nx - 1) as f64
            })
            .collect();
        let ys: Vec<f64> = (0..spec.ny)
            .map(|j| {
                spec.y_range.0 + (spec.y_range.1 - spec.y_range.0) * j as f64 / (spec.ny - 1) as f64
            })
            .collect();
        let points: Vec<Point3> = ys
            .iter()
            .flat_map(|&y| xs.iter().map(move |&x| Point3::new(x, y, 0.0)))
            .collect();
        let (mut values, cost) = surface_potentials(
            &points,
            mesh,
            kernel,
            &solution.unit_leakage(),
            pool,
            schedule,
        );
        for v in &mut values {
            *v *= solution.gpr;
        }
        PotentialMap {
            xs,
            ys,
            values,
            cost,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Potential at sample `(i, j)`.
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.values[j * self.xs.len() + i]
    }

    /// Maximum potential on the map.
    pub fn max(&self) -> f64 {
        self.values.iter().fold(f64::NEG_INFINITY, |m, v| m.max(*v))
    }

    /// Minimum potential on the map.
    pub fn min(&self) -> f64 {
        self.values.iter().fold(f64::INFINITY, |m, v| m.min(*v))
    }

    /// Writes the map as CSV (`x,y,v` per line) into a string — the
    /// contour-plot exchange format of the bench harness.
    pub fn to_csv(&self) -> String {
        let mut s = String::with_capacity(self.values.len() * 24);
        s.push_str("x,y,potential\n");
        for (j, y) in self.ys.iter().enumerate() {
            for (i, x) in self.xs.iter().enumerate() {
                writeln!(s, "{x},{y},{}", self.at(i, j)).expect("writing to a String cannot fail");
            }
        }
        s
    }
}

/// Potentials at arbitrary points for a unit-GPR solution (eq. 4.2),
/// `V(x) = Σ_i q_i · [∫ N_i G(x, ·)]`, plus the kernel work consumed.
///
/// The list is cut into tiles of [`TILE`] consecutive points, dispatched
/// over `pool` under `schedule`. A tile pushes its points into a
/// [`KernelBatch`] once and walks the source elements in ascending order,
/// accumulating `q[n0]·v0 + q[n1]·v1` per point. What a tile holds
/// depends on the point list alone, so the values are bit-identical
/// across schedules × thread counts, the one-thread inline path included
/// — but not across *lists*: the lane kernel's collective series stop
/// couples the points of a tile, so the same point may differ in its last
/// bits between two lists that tile it with different neighbours.
pub fn surface_potentials(
    points: &[Point3],
    mesh: &Mesh,
    kernel: &SoilKernel,
    q_unit: &[f64],
    pool: &ThreadPool,
    schedule: Schedule,
) -> (Vec<f64>, KernelCost) {
    let geoms = element_geoms(mesh);
    let mut values = vec![0.0f64; points.len()];
    let mut tiles: Vec<(&mut [f64], KernelCost)> = values
        .chunks_mut(TILE)
        .map(|out| (out, KernelCost::default()))
        .collect();
    pool.scoped_partition(&mut tiles, schedule, |t, (out, cost)| {
        let mut batch = KernelBatch::new();
        for &p in &points[t * TILE..][..out.len()] {
            batch.push(p);
        }
        for (g, element) in geoms.iter().zip(&mesh.elements) {
            *cost += kernel.element_potential_batch(&mut batch, g);
            let [n0, n1] = element.nodes;
            for (v, vi) in out.iter_mut().zip(batch.values()) {
                *v += q_unit[n0] * vi[0] + q_unit[n1] * vi[1];
            }
        }
    });
    let mut cost = KernelCost::default();
    for (_, tile_cost) in &tiles {
        cost += *tile_cost;
    }
    (values, cost)
}

/// [`surface_potentials`] on the calling thread, for the handful of
/// probe points the voltage extractors need.
fn surface_potentials_inline(
    points: &[Point3],
    mesh: &Mesh,
    kernel: &SoilKernel,
    q_unit: &[f64],
) -> Vec<f64> {
    let inline = ThreadPool::new(1);
    surface_potentials(
        points,
        mesh,
        kernel,
        q_unit,
        &inline,
        Schedule::static_blocked(),
    )
    .0
}

/// Extracts the worst touch and step voltages from a potential map.
///
/// * **Touch**: `max(GPR − V)` over the map window (IEEE 80 limits apply
///   within reach of grounded structures, i.e. over the grid area).
/// * **Step**: maximum potential difference between samples ~1 m apart
///   (along rows and columns; the sampling spacing is used as the stride
///   closest to 1 m).
#[derive(Clone, Copy, Debug)]
pub struct VoltageExtrema {
    /// Worst touch voltage on the window (V).
    pub touch: f64,
    /// Worst step voltage on the window (V).
    pub step: f64,
    /// Highest surface potential (V).
    pub max_surface: f64,
}

/// Computes [`VoltageExtrema`] from a map and the GPR.
pub fn voltage_extrema(map: &PotentialMap, gpr: f64) -> VoltageExtrema {
    let nx = map.xs.len();
    let ny = map.ys.len();
    let dx = if nx > 1 { map.xs[1] - map.xs[0] } else { 1.0 };
    let dy = if ny > 1 { map.ys[1] - map.ys[0] } else { 1.0 };
    // Stride closest to 1 m in each direction (at least 1 sample).
    let sx = (1.0 / dx).round().max(1.0) as usize;
    let sy = (1.0 / dy).round().max(1.0) as usize;
    let mut touch = f64::NEG_INFINITY;
    let mut step = 0.0f64;
    for j in 0..ny {
        for i in 0..nx {
            let v = map.at(i, j);
            touch = touch.max(gpr - v);
            if i + sx < nx {
                step = step.max((v - map.at(i + sx, j)).abs());
            }
            if j + sy < ny {
                step = step.max((v - map.at(i, j + sy)).abs());
            }
        }
    }
    VoltageExtrema {
        touch,
        step,
        max_surface: map.max(),
    }
}

/// A 1-D potential profile along a straight surface walk from `a` to `b`
/// (both at z = 0), with `n` samples — the cross-sections used to read
/// contour figures like Fig 5.2.
pub fn potential_profile(
    a: Point3,
    b: Point3,
    n: usize,
    mesh: &Mesh,
    kernel: &SoilKernel,
    solution: &GroundingSolution,
) -> Vec<(f64, f64)> {
    assert!(n >= 2, "profile needs at least 2 samples");
    let len = a.distance(b);
    let ts: Vec<f64> = (0..n).map(|k| k as f64 / (n - 1) as f64).collect();
    let points: Vec<Point3> = ts.iter().map(|&t| a + (b - a) * t).collect();
    let unit = surface_potentials_inline(&points, mesh, kernel, &solution.unit_leakage());
    ts.iter()
        .zip(unit)
        .map(|(t, v)| (t * len, v * solution.gpr))
        .collect()
}

/// Mesh voltage: the worst touch voltage at the centres of grid meshes —
/// IEEE 80's `Em`, the design quantity for the grid interior. Takes the
/// mesh-centre probe points explicitly (cell centres of the grid
/// generator).
pub fn mesh_voltage(
    centres: &[Point3],
    mesh: &Mesh,
    kernel: &SoilKernel,
    solution: &GroundingSolution,
) -> f64 {
    surface_potentials_inline(centres, mesh, kernel, &solution.unit_leakage())
        .into_iter()
        .map(|v| solution.gpr - v * solution.gpr)
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulation::SolveOptions;
    use crate::system::GroundingSystem;
    use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};
    use layerbem_geometry::Mesher;
    use layerbem_soil::SoilModel;

    fn solved_grid() -> (GroundingSystem, GroundingSolution) {
        let net = rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0),
            width: 20.0,
            height: 20.0,
            nx: 2,
            ny: 2,
            depth: 0.8,
            radius: 0.006,
        });
        let mesh = Mesher::default().mesh(&net);
        let sys = GroundingSystem::new(mesh, &SoilModel::uniform(0.016), SolveOptions::default());
        let sol = sys
            .prepare()
            .expect("prepare")
            .solve(&crate::study::Scenario::gpr(10_000.0))
            .expect("solve");
        (sys, sol)
    }

    #[test]
    fn potential_peaks_over_the_grid_and_decays_away() {
        let (sys, sol) = solved_grid();
        let pool = ThreadPool::new(2);
        let map = PotentialMap::compute(
            sys.mesh(),
            sys.kernel(),
            &sol,
            &MapSpec {
                x_range: (-20.0, 40.0),
                y_range: (10.0, 10.0 + 1e-9),
                nx: 61,
                ny: 2,
            },
            &pool,
            Schedule::dynamic(4),
        );
        // Max over the grid centreline should be near the middle.
        let centre = map.at(30, 0); // x = 10
        let far = map.at(0, 0); // x = −20
        assert!(centre > 2.0 * far, "centre {centre} far {far}");
        // The surface potential never exceeds the GPR.
        assert!(map.max() < sol.gpr);
        assert!(map.min() > 0.0);
    }

    #[test]
    fn map_is_schedule_invariant() {
        let (sys, sol) = solved_grid();
        let pool = ThreadPool::new(3);
        let spec = MapSpec {
            x_range: (-5.0, 25.0),
            y_range: (-5.0, 25.0),
            nx: 7,
            ny: 7,
        };
        let a = PotentialMap::compute(
            sys.mesh(),
            sys.kernel(),
            &sol,
            &spec,
            &pool,
            Schedule::static_blocked(),
        );
        let b = PotentialMap::compute(
            sys.mesh(),
            sys.kernel(),
            &sol,
            &spec,
            &pool,
            Schedule::guided(1),
        );
        for (u, v) in a.values.iter().zip(&b.values) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn symmetry_of_the_map_matches_grid_symmetry() {
        // The square grid is symmetric under x↔y; so must be the map.
        let (sys, sol) = solved_grid();
        let pool = ThreadPool::new(2);
        let map = PotentialMap::compute(
            sys.mesh(),
            sys.kernel(),
            &sol,
            &MapSpec {
                x_range: (0.0, 20.0),
                y_range: (0.0, 20.0),
                nx: 9,
                ny: 9,
            },
            &pool,
            Schedule::dynamic(1),
        );
        for j in 0..9 {
            for i in 0..9 {
                let a = map.at(i, j);
                let b = map.at(j, i);
                assert!(
                    (a - b).abs() < 1e-6 * a.abs().max(b.abs()),
                    "({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn touch_voltage_is_complementary_to_surface_potential() {
        // Touch = GPR − V: the worst touch sits over the lowest potential.
        let map = PotentialMap {
            xs: vec![0.0, 1.0],
            ys: vec![0.0, 1.0],
            values: vec![9_500.0, 9_000.0, 9_750.0, 9_250.0],
            ..PotentialMap::default()
        };
        let ve = voltage_extrema(&map, 10_000.0);
        assert_eq!(ve.touch, 1_000.0);
        assert_eq!(ve.max_surface, 9_750.0);
    }

    #[test]
    fn voltage_extrema_bounds() {
        let (sys, sol) = solved_grid();
        let pool = ThreadPool::new(2);
        let map = PotentialMap::compute(
            sys.mesh(),
            sys.kernel(),
            &sol,
            &MapSpec {
                x_range: (-10.0, 30.0),
                y_range: (-10.0, 30.0),
                nx: 41,
                ny: 41,
            },
            &pool,
            Schedule::dynamic(8),
        );
        let ve = voltage_extrema(&map, sol.gpr);
        assert!(ve.touch > 0.0 && ve.touch < sol.gpr);
        assert!(ve.step > 0.0 && ve.step < ve.touch * 2.0);
        assert!(ve.max_surface < sol.gpr);
        // Touch voltage worsens away from the conductors: the map corner
        // (outside the grid) has higher touch than the centre.
        let centre_touch = sol.gpr - map.at(20, 20);
        let corner_touch = sol.gpr - map.at(0, 0);
        assert!(corner_touch > centre_touch);
    }

    #[test]
    fn mesh_voltage_probes_cell_centres() {
        let (sys, sol) = solved_grid();
        // Cell centres of the 2×2 grid.
        let centres = vec![
            Point3::new(5.0, 5.0, 0.0),
            Point3::new(15.0, 5.0, 0.0),
            Point3::new(5.0, 15.0, 0.0),
            Point3::new(15.0, 15.0, 0.0),
        ];
        let em = mesh_voltage(&centres, sys.mesh(), sys.kernel(), &sol);
        assert!(em > 0.0 && em < sol.gpr);
        // By symmetry all four centres are equivalent; Em equals the
        // touch voltage at any of them.
        let unit =
            surface_potentials_inline(&centres[..1], sys.mesh(), sys.kernel(), &sol.unit_leakage());
        let v = unit[0] * sol.gpr;
        assert!((em - (sol.gpr - v)).abs() < 1e-6 * em);
    }

    #[test]
    fn profile_is_symmetric_across_the_grid() {
        let (sys, sol) = solved_grid();
        let prof = potential_profile(
            Point3::new(-10.0, 10.0, 0.0),
            Point3::new(30.0, 10.0, 0.0),
            21,
            sys.mesh(),
            sys.kernel(),
            &sol,
        );
        assert_eq!(prof.len(), 21);
        // Walk is symmetric about the grid centre (x = 10).
        for k in 0..10 {
            let (_, v1) = prof[k];
            let (_, v2) = prof[20 - k];
            assert!((v1 - v2).abs() < 1e-6 * v1.abs().max(v2.abs()), "{k}");
        }
        // Distances are monotone arclength.
        assert!((prof[20].0 - 40.0).abs() < 1e-12);
    }

    #[test]
    fn csv_round_trip_shape() {
        let (sys, sol) = solved_grid();
        let pool = ThreadPool::new(1);
        let map = PotentialMap::compute(
            sys.mesh(),
            sys.kernel(),
            &sol,
            &MapSpec {
                x_range: (0.0, 10.0),
                y_range: (0.0, 10.0),
                nx: 3,
                ny: 2,
            },
            &pool,
            Schedule::static_blocked(),
        );
        let csv = map.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 1 + 6);
        assert_eq!(lines[0], "x,y,potential");
    }

    #[test]
    fn csv_bytes_are_pinned() {
        let map = PotentialMap {
            xs: vec![0.0, 2.5],
            ys: vec![-1.0, 1e-7],
            values: vec![1234.5678, 0.1 + 0.2, 1e21, -0.0],
            ..PotentialMap::default()
        };
        assert_eq!(
            map.to_csv(),
            "x,y,potential\n\
             0,-1,1234.5678\n\
             2.5,-1,0.30000000000000004\n\
             0,0.0000001,1000000000000000000000\n\
             2.5,0.0000001,-0\n"
        );
    }

    #[test]
    fn map_spec_refuses_windows_compute_would_choke_on() {
        let ok = MapSpec::new((0.0, 10.0), (-5.0, 5.0), 2, 3).expect("valid window");
        assert_eq!(
            (ok.x_range, ok.y_range, ok.nx, ok.ny),
            ((0.0, 10.0), (-5.0, 5.0), 2, 3)
        );
        assert_eq!(
            MapSpec::new((0.0, 10.0), (0.0, 10.0), 1, 1).unwrap_err(),
            MapSpecError::TooFewSamples { nx: 1, ny: 1 }
        );
        assert_eq!(
            MapSpec::new((0.0, 10.0), (0.0, 10.0), 5, 0).unwrap_err(),
            MapSpecError::TooFewSamples { nx: 5, ny: 0 }
        );
        assert_eq!(
            MapSpec::new((10.0, 0.0), (0.0, 10.0), 4, 4).unwrap_err(),
            MapSpecError::EmptyWindow {
                axis: 'x',
                lo: 10.0,
                hi: 0.0
            }
        );
        assert_eq!(
            MapSpec::new((0.0, 10.0), (3.0, 3.0), 4, 4).unwrap_err(),
            MapSpecError::EmptyWindow {
                axis: 'y',
                lo: 3.0,
                hi: 3.0
            }
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                MapSpec::new((0.0, bad), (0.0, 10.0), 4, 4).unwrap_err(),
                MapSpecError::NonFiniteWindow
            );
        }
    }

    #[test]
    fn map_reports_its_own_cost() {
        let (sys, sol) = solved_grid();
        let spec = MapSpec::new((-5.0, 25.0), (-5.0, 25.0), 7, 7).expect("valid window");
        let map = PotentialMap::compute(
            sys.mesh(),
            sys.kernel(),
            &sol,
            &spec,
            &ThreadPool::new(2),
            Schedule::dynamic(1),
        );
        // Uniform soil on the surface: one folded image per point per
        // element, every one through the lanes.
        let pairs = (49 * sys.mesh().element_count()) as u64;
        assert_eq!(map.cost.terms, pairs);
        assert_eq!(map.cost.lane_points, pairs);
        assert!(map.cost.lane_slots >= pairs);
        assert!(map.seconds > 0.0);
    }
}
