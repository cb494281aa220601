//! The start-up check behind the pinned `x86-64-v3` build.
//!
//! `.cargo/config.toml` compiles the workspace for `x86-64-v3` so the
//! lane kernels vectorise into AVX2/FMA. On a host without those
//! features such a binary dies with SIGILL at the first kernel; both
//! binaries call [`check`] first and exit 2 with one line instead.
//!
//! The features are read off CPUID directly: `is_x86_feature_detected!`
//! folds to `true` for any feature the build enables at compile time, so
//! under the pinned flags it would never report one missing.

/// The pinned features this build was compiled to use that the host CPU
/// lacks (always empty off x86-64, and for a build without them).
fn missing_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        let bit = |reg: u32, n: u32| reg >> n & 1 == 1;
        let leaf1 = __cpuid(1).ecx;
        let leaf7 = if __cpuid(0).eax >= 7 {
            __cpuid_count(7, 0).ebx
        } else {
            0
        };
        let ext = if __cpuid(0x8000_0000).eax >= 0x8000_0001 {
            __cpuid(0x8000_0001).ecx
        } else {
            0
        };
        // AVX-state features also need the OS to save the ymm registers
        // (OSXSAVE set, XCR0 bits 1 and 2).
        // SAFETY: `xgetbv` exists exactly when CPUID reports OSXSAVE.
        let ymm = bit(leaf1, 27) && unsafe { std::arch::x86_64::_xgetbv(0) } & 0b110 == 0b110;
        [
            ("avx2", cfg!(target_feature = "avx2"), ymm && bit(leaf7, 5)),
            ("fma", cfg!(target_feature = "fma"), ymm && bit(leaf1, 12)),
            ("bmi1", cfg!(target_feature = "bmi1"), bit(leaf7, 3)),
            ("bmi2", cfg!(target_feature = "bmi2"), bit(leaf7, 8)),
            ("lzcnt", cfg!(target_feature = "lzcnt"), bit(ext, 5)),
            ("movbe", cfg!(target_feature = "movbe"), bit(leaf1, 22)),
            ("f16c", cfg!(target_feature = "f16c"), ymm && bit(leaf1, 29)),
        ]
        .into_iter()
        .filter(|&(_, built, present)| built && !present)
        .map(|(name, _, _)| name)
        .collect()
    }
    #[cfg(not(target_arch = "x86_64"))]
    Vec::new()
}

/// The one line a binary prints before exiting 2 on a host that lacks
/// `missing`.
fn message(missing: &[&str]) -> String {
    format!(
        "this build needs CPU features the host lacks ({}); rebuild with \
         RUSTFLAGS=\"-C target-cpu=x86-64\"",
        missing.join(", ")
    )
}

/// Exits the process with status 2 and one line on stderr, naming the
/// missing features and the rebuild override, when the host cannot run
/// this build. `binary` prefixes the line.
pub fn check(binary: &str) {
    let missing = missing_features();
    if !missing.is_empty() {
        eprintln!("{binary}: {}", message(&missing));
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_host_runs_this_build() {
        assert_eq!(missing_features(), Vec::<&str>::new());
    }

    #[test]
    fn the_message_names_the_features_and_the_override() {
        let line = message(&["avx2", "fma"]);
        assert!(line.contains("avx2, fma"), "{line}");
        assert!(
            line.contains(r#"RUSTFLAGS="-C target-cpu=x86-64""#),
            "{line}"
        );
        assert!(!line.contains('\n'), "one line: {line}");
    }
}
