//! Equipotential contour extraction.
//!
//! The paper's post-processing cost discussion is about computing
//! "potentials at a large number of points (i.e. to draw contours)"
//! (§4.3) — Figs 5.2 and 5.4 *are* contour plots. This module turns a
//! [`PotentialMap`] into
//! iso-potential
//! polylines by marching squares with linear interpolation along cell
//! edges, ready for plotting or for extracting the safety boundary
//! (e.g. the touch-voltage-limit contour around an installation).

use crate::post::PotentialMap;

/// One contour polyline at a fixed level: a chain of `(x, y)` points.
#[derive(Clone, Debug, PartialEq)]
pub struct ContourLine {
    /// The iso-value of this line (V).
    pub level: f64,
    /// Polyline vertices in order; closed when first == last.
    pub points: Vec<(f64, f64)>,
}

impl ContourLine {
    /// True when the polyline closes on itself.
    #[cfg(test)]
    fn is_closed(&self) -> bool {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => {
                (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9 && self.points.len() > 2
            }
            _ => false,
        }
    }

    /// Total polyline length.
    pub fn length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| ((w[1].0 - w[0].0).powi(2) + (w[1].1 - w[0].1).powi(2)).sqrt())
            .sum()
    }
}

/// Extracts the contour lines of `map` at `level` by marching squares.
///
/// Returns every connected polyline; saddle cells are resolved by the
/// cell-centre average (the standard disambiguation). Levels exactly
/// equal to a grid value are nudged by 1 ulp-scale epsilon to avoid
/// degenerate zero-length edges.
pub fn extract_contour(map: &PotentialMap, level: f64) -> Vec<ContourLine> {
    let nx = map.xs.len();
    let ny = map.ys.len();
    if nx < 2 || ny < 2 {
        return Vec::new();
    }
    // Nudge the level off exact grid values.
    let scale = map
        .values
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(1.0);
    let mut lv = level;
    if map.values.contains(&lv) {
        lv += 1e-12 * scale;
    }

    // Collect line segments per cell, then stitch them into polylines.
    let mut segments: Vec<((f64, f64), (f64, f64))> = Vec::new();
    let interp = |va: f64, vb: f64, a: f64, b: f64| -> f64 { a + (lv - va) / (vb - va) * (b - a) };
    for j in 0..ny - 1 {
        for i in 0..nx - 1 {
            let (x0, x1) = (map.xs[i], map.xs[i + 1]);
            let (y0, y1) = (map.ys[j], map.ys[j + 1]);
            // Corner values: bl, br, tr, tl.
            let v = [
                map.at(i, j),
                map.at(i + 1, j),
                map.at(i + 1, j + 1),
                map.at(i, j + 1),
            ];
            let mut code = 0usize;
            for (k, val) in v.iter().enumerate() {
                if *val > lv {
                    code |= 1 << k;
                }
            }
            if code == 0 || code == 15 {
                continue;
            }
            // Edge crossings: bottom (0-1), right (1-2), top (2-3),
            // left (3-0).
            let bottom = || (interp(v[0], v[1], x0, x1), y0);
            let right = || (x1, interp(v[1], v[2], y0, y1));
            let top = || (interp(v[3], v[2], x0, x1), y1);
            let left = || (x0, interp(v[0], v[3], y0, y1));
            let mut push = |a: (f64, f64), b: (f64, f64)| segments.push((a, b));
            match code {
                1 | 14 => push(left(), bottom()),
                2 | 13 => push(bottom(), right()),
                3 | 12 => push(left(), right()),
                4 | 11 => push(right(), top()),
                6 | 9 => push(bottom(), top()),
                7 | 8 => push(left(), top()),
                5 | 10 => {
                    // Saddle: split by the cell-centre average.
                    let centre = 0.25 * (v[0] + v[1] + v[2] + v[3]);
                    let centre_high = centre > lv;
                    if (code == 5) == centre_high {
                        push(left(), top());
                        push(bottom(), right());
                    } else {
                        push(left(), bottom());
                        push(right(), top());
                    }
                }
                _ => unreachable!("codes 0 and 15 are filtered"),
            }
        }
    }

    // A contour passing (numerically) through a grid node produces
    // degenerate sliver segments across the corner; drop them before
    // stitching (their endpoints coincide within tolerance, so the chain
    // bridges the corner anyway).
    let min_dx = map
        .xs
        .windows(2)
        .map(|w| w[1] - w[0])
        .fold(f64::INFINITY, f64::min);
    let min_dy = map
        .ys
        .windows(2)
        .map(|w| w[1] - w[0])
        .fold(f64::INFINITY, f64::min);
    let sliver = 1e-6 * min_dx.min(min_dy).max(1e-12);
    segments.retain(|(a, b)| {
        let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        d > sliver
    });
    stitch(segments, lv)
}

/// Chains loose segments into polylines by matching endpoints.
fn stitch(mut segments: Vec<((f64, f64), (f64, f64))>, level: f64) -> Vec<ContourLine> {
    let close = |a: (f64, f64), b: (f64, f64)| (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9;
    let mut lines = Vec::new();
    while let Some((a, b)) = segments.pop() {
        let mut chain = vec![a, b];
        loop {
            let tail = *chain.last().expect("non-empty");
            let head = chain[0];
            if let Some(idx) = segments
                .iter()
                .position(|(p, q)| close(*p, tail) || close(*q, tail))
            {
                let (p, q) = segments.swap_remove(idx);
                chain.push(if close(p, tail) { q } else { p });
            } else if let Some(idx) = segments
                .iter()
                .position(|(p, q)| close(*p, head) || close(*q, head))
            {
                let (p, q) = segments.swap_remove(idx);
                chain.insert(0, if close(p, head) { q } else { p });
            } else {
                break;
            }
        }
        lines.push(ContourLine {
            level,
            points: chain,
        });
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic radial map: V = 1 / (1 + r²) centred at (0, 0).
    fn radial_map(n: usize, extent: f64) -> PotentialMap {
        let xs: Vec<f64> = (0..n)
            .map(|i| -extent + 2.0 * extent * i as f64 / (n - 1) as f64)
            .collect();
        let ys = xs.clone();
        let mut values = Vec::with_capacity(n * n);
        for y in &ys {
            for x in &xs {
                values.push(1.0 / (1.0 + x * x + y * y));
            }
        }
        PotentialMap {
            xs,
            ys,
            values,
            ..PotentialMap::default()
        }
    }

    #[test]
    fn radial_contour_is_a_circle() {
        let map = radial_map(81, 4.0);
        // Level 0.5 ⇒ r = 1.
        let lines = extract_contour(&map, 0.5);
        assert_eq!(lines.len(), 1, "one closed ring expected");
        let ring = &lines[0];
        assert!(ring.is_closed(), "ring should close");
        // Every vertex at radius ≈ 1.
        for (x, y) in &ring.points {
            let r = (x * x + y * y).sqrt();
            assert!((r - 1.0).abs() < 0.02, "r = {r}");
        }
        // Length ≈ 2π.
        assert!((ring.length() - 2.0 * std::f64::consts::PI).abs() < 0.05);
    }

    #[test]
    fn level_outside_range_gives_no_contours() {
        let map = radial_map(21, 3.0);
        assert!(extract_contour(&map, 2.0).is_empty());
        assert!(extract_contour(&map, -1.0).is_empty());
    }

    #[test]
    fn open_contours_terminate_on_the_boundary() {
        // A linear ramp V = x: contours are vertical lines crossing the
        // whole window.
        let n = 11;
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..n).map(|j| j as f64).collect();
        let mut values = Vec::new();
        for _ in 0..n {
            for x in &xs {
                values.push(*x);
            }
        }
        let map = PotentialMap {
            xs,
            ys,
            values,
            ..PotentialMap::default()
        };
        let lines = extract_contour(&map, 4.5);
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(!line.is_closed());
        // Vertical line at x = 4.5 spanning the window: length 10.
        assert!((line.length() - 10.0).abs() < 1e-9);
        for (x, _) in &line.points {
            assert!((x - 4.5).abs() < 1e-9);
        }
    }

    #[test]
    fn nested_levels_give_nested_rings() {
        let map = radial_map(81, 4.0);
        let outer = extract_contour(&map, 0.2); // r = 2
        let inner = extract_contour(&map, 0.8); // r = 0.5
        assert_eq!(outer.len(), 1);
        assert_eq!(inner.len(), 1);
        let r_of = |l: &ContourLine| {
            let (x, y) = l.points[0];
            (x * x + y * y).sqrt()
        };
        assert!(r_of(&outer[0]) > r_of(&inner[0]));
    }

    #[test]
    fn exact_grid_value_level_is_handled() {
        let map = radial_map(21, 3.0);
        let exact = map.values[5];
        // Must not panic or produce degenerate geometry.
        let lines = extract_contour(&map, exact);
        for l in &lines {
            assert!(l.points.len() >= 2);
            assert!(l.length().is_finite());
        }
    }
}
