//! Records build provenance for the host fingerprint: the rustc
//! version, the git commit when the checkout is a repository, and a
//! digest of the measured sources, which identifies the code even
//! where there is no repository.

use std::path::{Path, PathBuf};
use std::process::Command;

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!s.is_empty()).then_some(s)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("the benchmark sits in the repository");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit = command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string());

    // FNV-1a over the relative path and contents of every measured
    // source file, in sorted path order.
    let mut files = Vec::new();
    for sub in ["crates", "vendor"] {
        collect(&root.join(sub), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(f).unwrap_or_default();
        for b in rel.as_bytes().iter().chain(body.iter()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    println!("cargo:rustc-env=SELBENCH_RUSTC={version}");
    println!("cargo:rustc-env=SELBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=SELBENCH_SOURCE_DIGEST={h:016x}");
    for sub in ["crates", "vendor", "Cargo.toml"] {
        println!("cargo:rerun-if-changed={}", root.join(sub).display());
    }
}
