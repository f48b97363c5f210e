//! Regression tests for [`Scale::from_env`]'s rejection of unparsable
//! `--scale` / `RSV_SCALE` values.
//!
//! `Scale::parse` has unit tests in `src/lib.rs`; these cover the
//! process-level contract on top of it — an unparsable or non-positive
//! scale must terminate the experiment with exit code 2 and a diagnostic
//! on stderr, never silently fall back to the default problem size. They
//! drive a real harness binary (`noop_parity`, the cheapest one) as a
//! subprocess so the `eprintln` + `exit(2)` path itself is exercised.

use std::process::{Command, Output};

fn run(scale_env: Option<&str>, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_noop_parity"));
    // a hermetic environment for the knobs the harness reads
    cmd.env_remove("RSV_SCALE")
        .env_remove("RSV_JSON")
        .env_remove("RSV_METRICS")
        .env_remove("RSV_BACKEND");
    if let Some(v) = scale_env {
        cmd.env("RSV_SCALE", v);
    }
    cmd.args(args).output().expect("spawn harness binary")
}

fn assert_rejected(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected exit 2, got {:?}; stderr: {stderr}",
        out.status
    );
    assert!(
        stderr.contains("error:") && stderr.contains(needle),
        "stderr missing `{needle}`: {stderr}"
    );
}

#[test]
fn unparsable_rsv_scale_is_a_hard_error() {
    let out = run(Some("fast"), &[]);
    assert_rejected(&out, "RSV_SCALE value `fast` is not a number");
}

#[test]
fn unparsable_scale_flag_is_a_hard_error() {
    let out = run(None, &["--scale", "huge"]);
    assert_rejected(&out, "--scale value `huge` is not a number");
}

#[test]
fn missing_scale_value_is_a_hard_error() {
    let out = run(None, &["--scale"]);
    assert_rejected(&out, "--scale requires a value");
}

#[test]
fn non_positive_and_non_finite_scales_are_rejected() {
    assert_rejected(&run(None, &["--scale", "0"]), "positive finite");
    assert_rejected(&run(Some("-1"), &[]), "positive finite");
    assert_rejected(&run(None, &["--scale", "inf"]), "positive finite");
}

/// A bad environment value is rejected even when a valid `--scale`
/// follows: silently preferring one knob over a corrupt other would hide
/// configuration mistakes.
#[test]
fn bad_env_is_rejected_even_with_valid_flag() {
    let out = run(Some("bogus"), &["--scale", "0.5"]);
    assert_rejected(&out, "RSV_SCALE value `bogus` is not a number");
}

/// Control: a valid tiny scale runs the binary to completion (exit 0),
/// proving the rejection tests fail for the right reason.
#[test]
fn valid_scale_runs_to_completion() {
    let out = run(None, &["--scale", "0.01"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parity OK"), "stdout: {stdout}");
}
