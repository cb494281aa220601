//! Drives the `layerbem-cad` binary itself: one pooled run of a small
//! deck end to end (report, phase table, surface map), the usage-error
//! contract for flags the CLI does not have, for `--map` windows and for
//! a thread count it refuses, and the deck-error exit for a conductor
//! that cannot exist.

use std::path::PathBuf;
use std::process::{Command, Output};

const DECK: &str =
    "title T\nsoil two-layer 0.005 0.016 1.0\ngpr 10000\ngrid rect 0 0 20 20 2 2 0.8 0.006\n";

/// Writes `text` where only this test process looks and returns its path.
fn deck_file(tag: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("layerbem-cli-{}-{tag}.deck", std::process::id()));
    std::fs::write(&path, text).expect("write deck");
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
    let deck = deck_file("run", DECK);
    let csv = deck.with_extension("csv");
    let csv_arg = csv.to_str().expect("utf-8 temp path");
    let out = run(
        &deck,
        &[
            "--threads",
            "2",
            "--schedule",
            "dynamic,4",
            "--timing",
            "--map",
            "0",
            "20",
            "0",
            "20",
            "5",
            "5",
            csv_arg,
        ],
    );
    std::fs::remove_file(&deck).ok();
    let map = std::fs::read_to_string(&csv);
    std::fs::remove_file(&csv).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    // Req of this deck (the verify recipe's reference value).
    assert!(stdout.contains("Equivalent resistance: 2.48"), "{stdout}");
    assert!(stdout.contains("matrix-generation share"), "{stdout}");
    // The map's own `--timing` line and its CSV.
    assert!(stdout.contains("surface map: "), "{stdout}");
    assert!(stdout.contains("points/s"), "{stdout}");
    assert_eq!(map.expect("map written").lines().count(), 1 + 25);
}

#[test]
fn bad_map_windows_are_usage_errors_before_the_deck_runs() {
    let deck = deck_file("map", DECK);
    for (window, why) in [
        (["0", "10", "0", "10", "1", "1"], "at least 2×2 samples"),
        (["0", "10", "0", "10", "2.5", "3"], "usage:"),
        (["0", "10", "0", "10", "-3", "3"], "usage:"),
        (["10", "0", "0", "10", "3", "3"], "empty along x"),
        (["0", "10", "4", "4", "3", "3"], "empty along y"),
        (["0", "inf", "0", "10", "3", "3"], "must be finite"),
        (["0", "NaN", "0", "10", "3", "3"], "must be finite"),
    ] {
        let mut args = vec!["--map"];
        args.extend(window);
        args.push("never-written.csv");
        let out = run(&deck, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{window:?}: {stderr}");
        assert!(stderr.contains(why), "{window:?}: {stderr}");
        assert!(
            stderr.contains("usage: layerbem-cad"),
            "{window:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{window:?} must not run the deck");
    }
    std::fs::remove_file(&deck).ok();
}

#[test]
fn removed_flags_are_usage_errors() {
    let deck = deck_file("usage", DECK);
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

#[test]
fn zero_threads_is_a_usage_error() {
    let deck = deck_file("threads", DECK);
    for threads in ["0", "-1", "two"] {
        let out = run(&deck, &["--threads", threads]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {stderr}");
        assert!(
            stderr.contains("usage: layerbem-cad"),
            "--threads {threads}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "--threads {threads} must not run the deck"
        );
    }
    std::fs::remove_file(&deck).ok();
}

#[test]
fn an_impossible_conductor_is_a_deck_error_not_a_panic() {
    for (tag, line, why) in [
        (
            "zero-length",
            "conductor 0 0 1 0 0 1 0.01",
            "line 2: conductor axis must have positive length",
        ),
        // Valid as a conductor, but shorter than the mesher's merge
        // distance: both ends land on one node.
        (
            "collapsed",
            "conductor 0 0 1 0 0 1.0000001 0.01",
            "ends collapse onto one node",
        ),
        (
            "zero-radius",
            "grid rect 0 0 20 20 2 2 0.8 0",
            "line 2: conductor radius must be positive",
        ),
        (
            "negative-depth",
            "grid rect 0 0 20 20 2 2 -0.8 0.006",
            "line 2: conductors must be buried",
        ),
    ] {
        let deck = deck_file(tag, &format!("title T\n{line}\n"));
        let out = run(&deck, &["--threads", "1"]);
        std::fs::remove_file(&deck).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(stderr.contains(why), "{tag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{tag}: {stderr}");
    }
}

#[test]
fn timing_counts_the_pairs_the_kernel_ran() {
    // The 2×2 yard has 12 elements, so 78 pairs; congruent pairs share
    // one class, integrated once.
    let deck = deck_file("pairs", DECK);
    let out = run(&deck, &["--threads", "1", "--timing"]);
    std::fs::remove_file(&deck).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("kernel evaluation: "))
        .expect("a kernel evaluation line");
    let (head, _) = line
        .split_once(" of 78 pairs evaluated, ")
        .unwrap_or_else(|| panic!("{line}"));
    let evaluated: usize = head
        .rsplit(' ')
        .next()
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("{line}"));
    assert!(0 < evaluated && evaluated < 78, "{line}");
}

#[test]
fn a_soil_the_image_series_cannot_sum_is_refused() {
    // γ₁/γ₂ = 1e-4: every image series of the rod stops at its group
    // cap, which used to leave the potentials percent-level low.
    let deck = deck_file(
        "capped",
        "title T\nsoil two-layer 0.0001 1.0 1.0\ngpr 10000\nrod 0 0 0.5 3 0.007\n",
    );
    let out = run(&deck, &["--threads", "1"]);
    std::fs::remove_file(&deck).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("image series does not converge within 4000 groups"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no report for a refused study");
}
