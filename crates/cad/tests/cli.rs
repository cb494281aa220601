//! Drives the `layerbem-cad` binary itself: one pooled run of a small
//! deck end to end, and the usage-error contract for flags the CLI does
//! not have.

use std::path::PathBuf;
use std::process::{Command, Output};

const DECK: &str =
    "title T\nsoil two-layer 0.005 0.016 1.0\ngpr 10000\ngrid rect 0 0 20 20 2 2 0.8 0.006\n";

/// Writes the deck where only this test process looks and returns its path.
fn deck_file(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("layerbem-cli-{}-{tag}.deck", std::process::id()));
    std::fs::write(&path, DECK).expect("write deck");
    path
}

fn run(deck: &PathBuf, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_layerbem-cad"))
        .arg(deck)
        .args(extra)
        .output()
        .expect("spawn layerbem-cad")
}

#[test]
fn pooled_run_prints_the_report_and_the_phase_table() {
    let deck = deck_file("run");
    let out = run(
        &deck,
        &["--threads", "2", "--schedule", "dynamic,4", "--timing"],
    );
    std::fs::remove_file(&deck).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    // Req of this deck (the verify recipe's reference value).
    assert!(stdout.contains("Equivalent resistance: 2.48"), "{stdout}");
    assert!(stdout.contains("matrix-generation share"), "{stdout}");
}

#[test]
fn removed_flags_are_usage_errors() {
    let deck = deck_file("usage");
    for flag in [
        ["--assembly", "direct"],
        ["--block", "8"],
        ["--kernel", "scalar"],
    ] {
        let out = run(&deck, &flag);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(stderr.contains("usage: layerbem-cad"), "{flag:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag:?} must not run the deck");
    }
    std::fs::remove_file(&deck).ok();
}
