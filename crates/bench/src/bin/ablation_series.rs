//! Ablation: the image series' stopping rule and its tolerance.
//!
//! The paper's series are summed "until a tolerance is fulfilled or an
//! upper limit of summands is achieved" (§4.3) — the stop is the cost
//! lever of the whole two-layer analysis. Two tables:
//!
//! 1. **Plain vs accelerated stop.** The lane kernel's own batches — each
//!    sampled pair's `2q` surface points under the 4- or 16-point outer
//!    rule, 32-point surface-map tiles on a 4 m lattice at z = 0
//!    (mirror-folded groups), random sloped rods crossing an interface,
//!    and a lone rod against its own surface points — are split into the
//!    kernel's lane passes (source sub-range × field side) and their
//!    image-group sums computed with the kernel's arithmetic
//!    ([`rod_integrals_batch_dir`]). Each pass is then summed three ways:
//!    the plain collective stop the kernel used before Wynn acceleration
//!    ([`sum_until_batch_plain`]: every lane's group term below
//!    `rel_tol · scale` for `consecutive` groups), the production
//!    [`BatchSeries`] (Wynn ε, stop on the accelerated estimates), and a
//!    long plain reference of `60/ln(1/|κ|) + 40` groups. Reported per
//!    soil: runs (lane passes), mean and largest groups, the largest error
//!    against the reference relative to the pass's largest value (the
//!    quantity the shared-scale stop controls), capped runs, and µs per
//!    pass with the groups computed on the fly. The harness is written
//!    against the public API, so the production `SoilKernel` is checked to
//!    return its accelerated values bit for bit on every single-pass
//!    batch. The pass/fail accuracy bar is the kernel's own test
//!    (`accelerated_sums_are_no_less_accurate_than_the_plain_stop`); this
//!    binary prints the table.
//! 2. **Tolerance sweep.** Balaidos model C (|κ| ≈ 0.78) assembled at
//!    relative tolerances 1e-3…1e-11: Req drift, series terms and
//!    matrix-generation time per setting.
//!
//! Usage: `ablation_series` from the repository root (artifacts under
//! `results/`). Single-threaded, a few seconds.

use layerbem_bench::{render_table, soils, write_artifact};
use layerbem_core::formulation::SolveOptions;
use layerbem_core::images::{Family, Image, ImageExpansion};
use layerbem_core::integration::{rod_integrals_batch_dir, ElementGeom};
use layerbem_core::kernel::{KernelBatch, SoilKernel};
use layerbem_core::system::GroundingSystem;
use layerbem_geometry::{Mesh, Point3, Segment};
use layerbem_numeric::rng::Xoshiro256StarStar;
use layerbem_numeric::series::{sum_until_batch_plain, BatchSeries, SeriesOptions};
use layerbem_numeric::GaussLegendre;
use layerbem_soil::SoilModel;
use std::time::Instant;

/// A two-layer soil `(γ₁, γ₂, H)`.
type Soil = (f64, f64, f64);

/// One lane pass of the kernel: a source sub-range against the field
/// points on one side of the interface.
struct Pass {
    exp: ImageExpansion,
    p0: Point3,
    p1: Point3,
    s0: f64,
    len: f64,
    sub_len: f64,
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    on_surface: bool,
}

impl Pass {
    fn lanes(&self) -> usize {
        2 * self.xs.len()
    }

    /// Group `n`'s contribution to every lane (N₀ plane, then N₁ plane),
    /// image by image in the kernel's order; `false` when exhausted.
    fn group(&self, n: usize, scratch: &mut Scratch, buf: &mut [f64]) -> bool {
        let Scratch {
            images,
            i0,
            i1,
            a0,
            a1,
        } = scratch;
        if self.on_surface {
            self.exp.surface_group(n, images);
        } else {
            self.exp.group(n, images);
        }
        if images.is_empty() {
            return false;
        }
        let npts = self.xs.len();
        for v in [&mut *i0, &mut *i1, &mut *a0, &mut *a1] {
            v.clear();
            v.resize(npts, 0.0);
        }
        let w0 = 1.0 - self.s0 / self.len;
        let w1 = self.s0 / self.len;
        let inv_len = 1.0 / self.len;
        let tx = (self.p1.x - self.p0.x) / self.sub_len;
        let ty = (self.p1.y - self.p0.y) / self.sub_len;
        let tz0 = (self.p1.z - self.p0.z) / self.sub_len;
        for im in images.iter() {
            let ia = Point3::new(self.p0.x, self.p0.y, im.depth(self.p0.z));
            let ib = Point3::new(self.p1.x, self.p1.y, im.depth(self.p1.z));
            let t = [tx, ty, im.sign * tz0];
            rod_integrals_batch_dir(
                &self.xs,
                &self.ys,
                &self.zs,
                ia,
                ib,
                self.sub_len,
                t,
                i0,
                i1,
            );
            let c = im.coefficient;
            for l in 0..npts {
                let v1 = i1[l] * inv_len;
                a0[l] += c * (w0 * i0[l] - v1);
                a1[l] += c * (w1 * i0[l] + v1);
            }
        }
        // The kernel adds each lane's register sum into a zeroed buffer.
        let (b0, b1) = buf.split_at_mut(npts);
        for l in 0..npts {
            b0[l] = 0.0 + a0[l];
            b1[l] = 0.0 + a1[l];
        }
        true
    }
}

/// Reused buffers of [`Pass::group`].
#[derive(Default)]
struct Scratch {
    images: Vec<Image>,
    i0: Vec<f64>,
    i1: Vec<f64>,
    a0: Vec<f64>,
    a1: Vec<f64>,
}

/// The kernel's lane passes of `pts` against `src` in a two-layer soil
/// `(γ₁, γ₂, H)`: the source split at the interface, each part against
/// the points above and below it.
fn passes(soil: Soil, src: &ElementGeom, pts: &[Point3]) -> Vec<Pass> {
    let (g1, g2, h) = soil;
    let kappa = (g1 - g2) / (g1 + g2);
    let len = src.length;
    let (za, zb) = (src.a.z, src.b.z);
    let mut ranges = vec![(0.0, len)];
    if (za - h) * (zb - h) < 0.0 {
        let s = (h - za) / (zb - za) * len;
        if s > 1e-12 && s < len - 1e-12 {
            ranges = vec![(0.0, s), (s, len)];
        }
    }
    let mut out = Vec::new();
    for (s0, s1) in ranges {
        let src_upper = src.at(0.5 * (s0 + s1)).z <= h;
        for field_upper in [true, false] {
            let side: Vec<Point3> = pts
                .iter()
                .copied()
                .filter(|p| (p.z <= h) == field_upper)
                .collect();
            if side.is_empty() {
                continue;
            }
            let (gamma, family) = match (src_upper, field_upper) {
                (true, true) => (g1, Family::UpperUpper),
                (true, false) => (g1, Family::UpperLower),
                (false, true) => (g2, Family::LowerUpper),
                (false, false) => (g2, Family::LowerLower),
            };
            out.push(Pass {
                exp: ImageExpansion {
                    kappa,
                    h,
                    prefactor: 1.0 / (4.0 * std::f64::consts::PI * gamma),
                    family,
                },
                p0: src.at(s0),
                p1: src.at(s1),
                s0,
                len,
                sub_len: s1 - s0,
                on_surface: side.iter().all(|p| p.z == 0.0),
                xs: side.iter().map(|p| p.x).collect(),
                ys: side.iter().map(|p| p.y).collect(),
                zs: side.iter().map(|p| p.z).collect(),
            });
        }
    }
    out
}

/// Largest `|v − r|` over a pass, relative to its largest `|r|`.
fn block_error(v: &[f64], r: &[f64]) -> f64 {
    let scale = r.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let err = v
        .iter()
        .zip(r)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    err / scale
}

#[derive(Default)]
struct Row {
    runs: usize,
    groups: [usize; 2],
    max_groups: [usize; 2],
    capped: [usize; 2],
    err: [f64; 2],
    secs: [f64; 2],
    bit_checked: usize,
}

/// One batch of field points against one source element.
struct Sample {
    src: ElementGeom,
    pts: Vec<Point3>,
}

/// `count` random element pairs of `mesh`, each as the `2q` surface points
/// of β under the outer rule `pair_block` picks (16 points when the pair's
/// closest endpoints are within two element lengths, else 4).
fn pair_samples(mesh: &Mesh, count: usize, seed: u64) -> Vec<Sample> {
    let geoms = layerbem_core::assembly::element_geoms(mesh);
    let (base, near) = (GaussLegendre::new(4), GaussLegendre::new(16));
    let mut rng = Xoshiro256StarStar::seeded(seed);
    (0..count)
        .map(|_| {
            let beta = &geoms[(rng.next_u64() % geoms.len() as u64) as usize];
            let alpha = &geoms[(rng.next_u64() % geoms.len() as u64) as usize];
            let (sb, sa) = (Segment::new(beta.a, beta.b), Segment::new(alpha.a, alpha.b));
            let sep = sb
                .distance_to_point(alpha.a)
                .min(sb.distance_to_point(alpha.b))
                .min(sa.distance_to_point(beta.a))
                .min(sa.distance_to_point(beta.b));
            let rule = if sep < 2.0 * beta.length.max(alpha.length) {
                &near
            } else {
                &base
            };
            let mut pts = Vec::new();
            for (s, _) in rule.mapped(0.0, beta.length) {
                let (xp, xm) = beta.surface_pair(s);
                pts.push(xp);
                pts.push(xm);
            }
            Sample { src: *alpha, pts }
        })
        .collect()
}

/// `count` random (map tile, element) batches: 32 consecutive row-major
/// points of a 4 m lattice at z = 0 over the mesh's extent.
fn tile_samples(mesh: &Mesh, count: usize, seed: u64) -> Vec<Sample> {
    let geoms = layerbem_core::assembly::element_geoms(mesh);
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for p in &mesh.nodes {
        x0 = x0.min(p.x);
        x1 = x1.max(p.x);
        y0 = y0.min(p.y);
        y1 = y1.max(p.y);
    }
    let nx = ((x1 - x0) / 4.0).floor() as usize + 1;
    let ny = ((y1 - y0) / 4.0).floor() as usize + 1;
    let lattice: Vec<Point3> = (0..ny)
        .flat_map(|j| {
            (0..nx).map(move |i| Point3::new(x0 + 4.0 * i as f64, y0 + 4.0 * j as f64, 0.0))
        })
        .collect();
    let tiles: Vec<&[Point3]> = lattice.chunks(layerbem_core::post::TILE).collect();
    let mut rng = Xoshiro256StarStar::seeded(seed);
    (0..count)
        .map(|_| {
            let tile = tiles[(rng.next_u64() % tiles.len() as u64) as usize];
            let src = geoms[(rng.next_u64() % geoms.len() as u64) as usize];
            Sample {
                src,
                pts: tile.to_vec(),
            }
        })
        .collect()
}

/// `count` random sloped rods, many of them crossing an interface at
/// 1.2 m, each against 1–11 points either on the surface or buried.
fn sloped_rod_samples(count: usize, seed: u64) -> Vec<Sample> {
    let mut rng = Xoshiro256StarStar::seeded(seed);
    (0..count)
        .map(|_| {
            let z = 0.2 + 2.0 * rng.next_f64();
            let dx = 1.0 + 3.0 * rng.next_f64();
            let dz = -0.15 + 1.65 * rng.next_f64();
            let src = ElementGeom::new(
                Point3::new(0.0, 0.0, z),
                Point3::new(dx, 0.3, z + dz),
                0.006,
            );
            let surface = rng.next_f64() < 0.5;
            let n = 1 + (rng.next_u64() % 11) as usize;
            let pts = (0..n)
                .map(|_| {
                    let (x, y) = (3.0 + 4.0 * rng.next_f64(), -2.0 + 3.0 * rng.next_f64());
                    let z = if surface {
                        0.0
                    } else {
                        0.3 + 1.8 * rng.next_f64()
                    };
                    Point3::new(x, y, z)
                })
                .collect();
            Sample { src, pts }
        })
        .collect()
}

/// A lone 2.5 m rod from 0.5 m depth (crossing a 1 m interface) against
/// its own 16-point surface points: the pair that a one-rod deck is.
fn rod_samples() -> Vec<Sample> {
    let src = ElementGeom::new(
        Point3::new(0.0, 0.0, 0.5),
        Point3::new(0.0, 0.0, 3.0),
        0.007,
    );
    let mut pts = Vec::new();
    for (s, _) in GaussLegendre::new(16).mapped(0.0, src.length) {
        let (xp, xm) = src.surface_pair(s);
        pts.push(xp);
        pts.push(xm);
    }
    vec![Sample { src, pts }]
}

/// Sums every lane pass of `samples` the three ways (see the module doc).
fn measure(soil: Soil, samples: &[Sample], opts: SeriesOptions) -> Row {
    let (g1, g2, h) = soil;
    let kappa: f64 = (g1 - g2) / (g1 + g2);
    let long = SeriesOptions {
        max_terms: (60.0 / (1.0 / kappa.abs()).ln()).ceil() as usize + 40,
        consecutive: usize::MAX,
        ..opts
    };
    let model = SoilModel::two_layer(g1, g2, h);
    let kernel = SoilKernel::with_options(&model, opts);
    let mut row = Row::default();
    let mut scratch = Scratch::default();
    let mut engine = BatchSeries::new();
    let mut batch = KernelBatch::new();
    for sample in samples {
        let ps = passes(soil, &sample.src, &sample.pts);
        for pass in &ps {
            let lanes = pass.lanes();
            let npts = lanes / 2;
            let mut group = |n: usize, buf: &mut [f64]| pass.group(n, &mut scratch, buf);
            row.runs += 1;
            let t0 = Instant::now();
            let plain = sum_until_batch_plain(lanes, &mut group, opts);
            row.secs[0] += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let (eps_groups, converged) = engine.run(lanes, &mut group, opts);
            row.secs[1] += t0.elapsed().as_secs_f64();
            let eps: Vec<f64> = (0..lanes).map(|l| engine.value(l)).collect();
            row.groups[0] += plain.terms;
            row.groups[1] += eps_groups;
            row.max_groups[0] = row.max_groups[0].max(plain.terms);
            row.max_groups[1] = row.max_groups[1].max(eps_groups);
            row.capped[0] += usize::from(!plain.converged);
            row.capped[1] += usize::from(!converged);
            let reference = sum_until_batch_plain(lanes, &mut group, long);
            row.err[0] = row.err[0].max(block_error(&plain.values, &reference.values));
            row.err[1] = row.err[1].max(block_error(&eps, &reference.values));
            if ps.len() == 1 {
                // The production kernel on the same batch must return the
                // harness's accelerated values bit for bit.
                batch.clear();
                for p in &sample.pts {
                    batch.push(*p);
                }
                kernel.element_potential_batch(&mut batch, &sample.src);
                for (j, v) in batch.values().iter().enumerate() {
                    assert_eq!(
                        v[0].to_bits(),
                        eps[j].to_bits(),
                        "kernel vs harness, lane {j}"
                    );
                    assert_eq!(
                        v[1].to_bits(),
                        eps[npts + j].to_bits(),
                        "kernel vs harness, lane {}",
                        npts + j
                    );
                }
                row.bit_checked += 1;
            }
        }
    }
    row
}

/// A two-layer soil with reflection ratio `kappa` over Barberá's upper
/// layer (γ₁ = 0.005, H = 1 m).
fn soil_with_kappa(kappa: f64) -> Soil {
    let g1 = 0.005;
    (g1, g1 * (1.0 - kappa) / (1.0 + kappa), 1.0)
}

fn two_layer_params(model: &SoilModel) -> Soil {
    match model {
        SoilModel::TwoLayer {
            upper,
            lower,
            thickness,
        } => (*upper, *lower, *thickness),
        _ => unreachable!("the table's soils are two-layer"),
    }
}

fn stop_table() -> (String, String) {
    let opts = layerbem_soil::default_series_options();
    let barbera = layerbem_bench::barbera_mesh();
    let balaidos = layerbem_bench::balaidos_mesh();
    let b2 = two_layer_params(&soils::barbera_two_layer());
    let lone = |g1| (g1, 1.0, 1.0);
    let cases: Vec<(&str, Soil, Vec<Sample>)> = vec![
        ("barbera-2l, pairs", b2, pair_samples(&barbera, 460, 1)),
        ("barbera-2l, map tiles", b2, tile_samples(&barbera, 200, 2)),
        (
            "balaidos-c, pairs",
            two_layer_params(&soils::balaidos_c()),
            pair_samples(&balaidos, 460, 3),
        ),
        (
            "balaidos-b (H 0.7), pairs",
            two_layer_params(&soils::balaidos_b()),
            pair_samples(&balaidos, 460, 4),
        ),
        (
            "κ +0.524, pairs",
            soil_with_kappa(0.524),
            pair_samples(&barbera, 200, 5),
        ),
        (
            "κ −0.9, pairs",
            soil_with_kappa(-0.9),
            pair_samples(&barbera, 100, 6),
        ),
        (
            "κ +0.5, pairs",
            soil_with_kappa(0.5),
            pair_samples(&barbera, 100, 7),
        ),
        (
            "κ +0.9, pairs",
            soil_with_kappa(0.9),
            pair_samples(&barbera, 100, 8),
        ),
        (
            "κ −0.99, pairs",
            soil_with_kappa(-0.99),
            pair_samples(&barbera, 20, 9),
        ),
        (
            "κ −0.9998, pairs",
            soil_with_kappa(-0.9998),
            pair_samples(&barbera, 8, 10),
        ),
        (
            "κ +0.9998, pairs",
            soil_with_kappa(0.9998),
            pair_samples(&barbera, 8, 11),
        ),
        (
            "sloped rods across H, κ +0.84",
            (0.138, 0.0118, 1.2),
            sloped_rod_samples(200, 12),
        ),
        (
            "sloped rods across H, κ −0.84",
            (0.0118, 0.138, 1.2),
            sloped_rod_samples(200, 13),
        ),
        ("lone rod, κ −0.99", lone(0.005), rod_samples()),
        ("lone rod, κ −0.998", lone(0.001), rod_samples()),
        ("lone rod, κ −0.9998", lone(0.0001), rod_samples()),
    ];
    let mut rows = Vec::new();
    let mut csv = String::from(
        "case,kappa,runs,groups_plain,groups_eps,max_groups_plain,max_groups_eps,err_plain,err_eps,capped_plain,capped_eps,us_per_run_plain,us_per_run_eps\n",
    );
    for (name, soil, samples) in &cases {
        let kappa = (soil.0 - soil.1) / (soil.0 + soil.1);
        let r = measure(*soil, samples, opts);
        let runs = r.runs as f64;
        let mean = |g: usize| g as f64 / runs;
        let us = |s: f64| 1e6 * s / runs;
        rows.push(vec![
            name.to_string(),
            format!("{kappa:+.4}"),
            r.runs.to_string(),
            format!(
                "{:.1} ({}) → {:.1} ({})",
                mean(r.groups[0]),
                r.max_groups[0],
                mean(r.groups[1]),
                r.max_groups[1]
            ),
            format!("{:.1e} → {:.1e}", r.err[0], r.err[1]),
            format!("{} → {}", r.capped[0], r.capped[1]),
            format!("{:.1} → {:.1}", us(r.secs[0]), us(r.secs[1])),
        ]);
        csv.push_str(&format!(
            "{name},{kappa:.4},{},{:.2},{:.2},{},{},{:.2e},{:.2e},{},{},{:.2},{:.2}\n",
            r.runs,
            mean(r.groups[0]),
            mean(r.groups[1]),
            r.max_groups[0],
            r.max_groups[1],
            r.err[0],
            r.err[1],
            r.capped[0],
            r.capped[1],
            us(r.secs[0]),
            us(r.secs[1]),
        ));
        eprintln!(
            "{name}: {} single-pass runs bit-identical to SoilKernel",
            r.bit_checked
        );
    }
    let table = render_table(
        &[
            "batches",
            "κ",
            "runs",
            "groups, plain → ε: mean (max)",
            "max error, plain → ε",
            "capped",
            "µs per run, plain → ε",
        ],
        &rows,
    );
    (table, csv)
}

fn tolerance_sweep() -> (String, String) {
    let mesh = layerbem_bench::balaidos_mesh();
    let soil = soils::balaidos_c();
    let mut rows = Vec::new();
    let mut csv = String::from("rel_tol,total_terms,seconds,req\n");
    for rel_tol in [1e-3, 1e-5, 1e-7, 1e-9, 1e-11] {
        let opts = SeriesOptions {
            rel_tol,
            ..layerbem_soil::default_series_options()
        };
        // Assemble with a custom-tolerance kernel through the low-level
        // API (GroundingSystem always uses the defaults).
        let kernel = SoilKernel::with_options(&soil, opts);
        let t0 = Instant::now();
        let report =
            layerbem_core::assembly::assemble_galerkin(&mesh, &kernel, &SolveOptions::default());
        let secs = t0.elapsed().as_secs_f64();
        let sys = GroundingSystem::new(mesh.clone(), &soil, SolveOptions::default());
        let sol = sys
            .prepare_assembled(&report)
            .expect("prepare")
            .solve(&layerbem_core::study::Scenario::gpr(10_000.0))
            .expect("solve");
        let req = sol.equivalent_resistance;
        rows.push(vec![
            format!("{rel_tol:.0e}"),
            report.total_terms().to_string(),
            format!("{secs:.2}"),
            format!("{req:.6}"),
        ]);
        csv.push_str(&format!(
            "{rel_tol:.0e},{},{secs:.3},{req:.7}\n",
            report.total_terms()
        ));
    }
    let table = render_table(&["rel tol", "series terms", "time (s)", "Req (Ω)"], &rows);
    (table, csv)
}

fn main() {
    let (stops, stops_csv) = stop_table();
    println!("Plain vs accelerated stop (rel_tol 1e-9, consecutive 2, cap 4 000 groups):\n{stops}");
    write_artifact("ablation_series_stop.csv", &stops_csv);
    write_artifact("ablation_series_stop.txt", &stops);
    let (sweep, sweep_csv) = tolerance_sweep();
    println!("Balaidos model C, tolerance sweep:\n{sweep}");
    write_artifact("ablation_series.csv", &sweep_csv);
    write_artifact("ablation_series.txt", &sweep);
}
