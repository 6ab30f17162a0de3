//! Tier-1 perfbench gate: the repository benchmark (`perfbench/`, a
//! workspace of its own that builds against these crates by path) must
//! still compile against the current public API, fully offline, with its
//! committed lockfile.
//!
//! perfbench sits outside the workspace, so no other tier-1 target builds
//! it. `--locked` fails if `perfbench/Cargo.lock` would need a rewrite —
//! for example after a dependency is added to a crate perfbench links. The
//! nested cargo uses its own `target/perfbench-gate` build directory,
//! because the outer `cargo test` holds the lock on `target/` for its
//! whole run.

use std::path::Path;
use std::process::Command;

#[test]
fn perfbench_checks_against_the_committed_lockfile() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let run = Command::new(env!("CARGO"))
        .args([
            "check",
            "--release",
            "--offline",
            "--locked",
            "--manifest-path",
            "perfbench/Cargo.toml",
        ])
        .current_dir(repo)
        .env(
            "CARGO_TARGET_DIR",
            repo.join("target").join("perfbench-gate"),
        )
        .output()
        .expect("cargo invocation");
    assert!(
        run.status.success(),
        "cargo check --locked --manifest-path perfbench/Cargo.toml failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
}
