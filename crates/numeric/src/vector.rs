//! Basic dense-vector kernels.
//!
//! These are the level-1 BLAS-like primitives the iterative solver is
//! built from. They are deliberately plain, allocation-free loops: at the
//! system sizes the BEM produces (`N ≲ 10⁴`) the compiler auto-vectorizes
//! them well and the matrix–vector product dominates anyway.
//!
//! The **blocked** reductions ([`dot_blocked`], [`norm2_blocked`]) fix
//! one summation order: the vector is cut into `REDUCE_CHUNK`-length
//! runs, each run is summed left to right, and the run partials are
//! folded in ascending run order. The partition is a pure function of the
//! vector length, so PCG's iterates depend on nothing but its inputs.

/// Partition width of the blocked reductions: both fold the same
/// `⌈n/REDUCE_CHUNK⌉` run partials in the same ascending order.
const REDUCE_CHUNK: usize = 512;

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

/// Maximum norm `‖x‖∞`.
fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// `y ← a·x + y`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `y ← x + b·y` (the "xpby" update used by CG's direction recurrence).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + b * *yi;
    }
}

/// Component-wise product `z_i = x_i · y_i` (used to apply the Jacobi
/// preconditioner, whose inverse is stored component-wise).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn hadamard(x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "hadamard: length mismatch");
    assert_eq!(x.len(), z.len(), "hadamard: output length mismatch");
    for ((zi, xi), yi) in z.iter_mut().zip(x).zip(y) {
        *zi = xi * yi;
    }
}

/// Dot product with the fixed-partition summation order: one serial
/// [`dot`] per `REDUCE_CHUNK`-length run, partials folded in ascending
/// run order.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot_blocked(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = 0.0;
    for (xc, yc) in x.chunks(REDUCE_CHUNK).zip(y.chunks(REDUCE_CHUNK)) {
        acc += dot(xc, yc);
    }
    acc
}

/// Euclidean norm `‖x‖₂`, scaled by `‖x‖∞` to avoid spurious
/// overflow/underflow for extreme magnitudes, with the fixed-partition
/// summation order of [`dot_blocked`]: the scaled sum-of-squares partials
/// fold in ascending run order.
pub fn norm2_blocked(x: &[f64]) -> f64 {
    let maxabs = norm_inf(x);
    if maxabs == 0.0 || !maxabs.is_finite() {
        return maxabs;
    }
    let mut acc = 0.0;
    for xc in x.chunks(REDUCE_CHUNK) {
        let mut run = 0.0;
        for v in xc {
            let s = v / maxabs;
            run += s * s;
        }
        acc += run;
    }
    maxabs * acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm2_is_scale_safe() {
        // Naive sum-of-squares would overflow here.
        let x = [1e200, 1e200];
        assert!(approx_eq(norm2_blocked(&x), 2f64.sqrt() * 1e200, 1e-14));
        // And underflow here.
        let y = [3e-200, 4e-200];
        assert!(approx_eq(norm2_blocked(&y), 5e-200, 1e-14));
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2_blocked(&[0.0, 0.0]), 0.0);
        assert_eq!(norm2_blocked(&[]), 0.0);
    }

    #[test]
    fn norm_inf_picks_largest_magnitude() {
        assert_eq!(norm_inf(&[1.0, -7.5, 3.0]), 7.5);
    }

    #[test]
    fn axpy_and_xpby_update_in_place() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, [7.0, 14.0]);
    }

    #[test]
    fn hadamard_componentwise() {
        let mut z = [0.0; 3];
        hadamard(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &mut z);
        assert_eq!(z, [4.0, 10.0, 18.0]);
    }

    /// Deterministic pseudo-random vector that exercises round-off (sums
    /// are order-sensitive at these magnitudes).
    fn noisy(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn dot_blocked_approximates_plain_dot() {
        for n in [
            0,
            1,
            100,
            REDUCE_CHUNK,
            REDUCE_CHUNK + 1,
            3 * REDUCE_CHUNK + 7,
        ] {
            let x = noisy(n, 11);
            let y = noisy(n, 23);
            assert!(approx_eq(dot_blocked(&x, &y), dot(&x, &y), 1e-12), "n={n}");
            // Below one chunk the partition is trivial: bit-identical.
            if n <= REDUCE_CHUNK {
                assert_eq!(dot_blocked(&x, &y).to_bits(), dot(&x, &y).to_bits());
            }
        }
    }

    #[test]
    fn norm2_blocked_matches_norm2_scaling() {
        // Several runs of the partition, against the unscaled
        // √(xᵀx) (no overflow at these magnitudes).
        let x = noisy(2000, 5);
        assert!(approx_eq(norm2_blocked(&x), dot(&x, &x).sqrt(), 1e-13));
        assert_eq!(norm2_blocked(&[0.0; 4]), 0.0);
    }
}
