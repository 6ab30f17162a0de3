//! Tier-1 workspace gate: every test suite of every workspace crate —
//! the unit tests inside `crates/*/src`, the `crates/*/tests` suites
//! (thread-count equivalence, bench smoke gates, the perf-diff CLI) and
//! the crate doc-tests — must pass in a release build, fully offline.
//!
//! `cargo test -q` at the repository root runs only the root package, so
//! without this gate the crate suites would sit outside tier-1. The root
//! package is excluded from the nested run: it is the package running
//! this test, and including it would recurse. The nested cargo uses its
//! own `target/workspace-gate` build directory, because the outer
//! `cargo test` holds the lock on `target/` for its whole run.

use std::path::Path;
use std::process::Command;

#[test]
fn every_workspace_crate_suite_passes() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let run = Command::new(env!("CARGO"))
        .args([
            "test",
            "--workspace",
            "--release",
            "--exclude",
            "dscweaver",
            "--offline",
        ])
        .current_dir(repo)
        .env(
            "CARGO_TARGET_DIR",
            repo.join("target").join("workspace-gate"),
        )
        .output()
        .expect("cargo invocation");
    assert!(
        run.status.success(),
        "cargo test --workspace --release --exclude dscweaver failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
}
