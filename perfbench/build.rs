//! Stamps the toolchain and source revision into the binary so every
//! result names what built it.

use std::path::Path;
use std::process::Command;

fn capture(command: &mut Command) -> Option<String> {
    let out = command.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = capture(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    // Only the repository root itself may answer: a checkout without its
    // own `.git` must not report the commit of a repository around it.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest)
        .parent()
        .expect("the package sits in the repository");
    let ceiling = root.parent().unwrap_or(root);
    let commit = capture(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
    .unwrap_or_else(|| "unknown (not a git checkout)".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
