//! `xmark-gen` — generate XMark / StandOff-XMark files on disk.
//!
//! ```text
//! xmark-gen --scale 0.01 [--seed 42] [--out DIR] [--standard] [--standoff]
//! ```
//!
//! Writes `xmark-<scale>.xml` (the standard nested document),
//! `xmark-<scale>-standoff.xml` (the StandOff twin) and
//! `xmark-<scale>.blob` (the extracted BLOB) into the output directory.
//! The files can be loaded with `standoff-xq query --load`.

use std::path::PathBuf;
use std::process::ExitCode;

use standoff_xmark::{generate, standoffify, XmarkConfig};

fn main() -> ExitCode {
    let mut scale = 0.01f64;
    let mut seed = XmarkConfig::default().seed;
    let mut out = PathBuf::from(".");
    let mut standard = false;
    let mut standoff = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 0;
    while k < args.len() {
        match args[k].as_str() {
            "--scale" => {
                k += 1;
                scale = match args.get(k).and_then(|s| s.parse().ok()) {
                    Some(v) => v,
                    None => return usage("--scale needs a number"),
                };
            }
            "--seed" => {
                k += 1;
                seed = match args.get(k).and_then(|s| s.parse().ok()) {
                    Some(v) => v,
                    None => return usage("--seed needs an integer"),
                };
            }
            "--out" => {
                k += 1;
                out = match args.get(k) {
                    Some(p) => PathBuf::from(p),
                    None => return usage("--out needs a directory"),
                };
            }
            "--standard" => standard = true,
            "--standoff" => standoff = true,
            "--help" | "-h" => {
                return usage("");
            }
            other => return usage(&format!("unknown argument '{other}'")),
        }
        k += 1;
    }
    if !standard && !standoff {
        standard = true;
        standoff = true;
    }

    eprintln!("generating XMark at scale {scale} (seed {seed})...");
    let config = XmarkConfig { scale, seed };
    let doc = generate(&config);
    eprintln!("  {} nodes", doc.node_count());

    let stem = format!("xmark-{scale}");
    if standard {
        let path = out.join(format!("{stem}.xml"));
        let xml = standoff_xml::serialize_document(&doc, Default::default());
        if let Err(e) = std::fs::write(&path, &xml) {
            eprintln!("xmark-gen: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "  wrote {} ({:.2} MB)",
            path.display(),
            xml.len() as f64 / 1e6
        );
    }
    if standoff {
        let so = standoffify(&doc, seed);
        let path = out.join(format!("{stem}-standoff.xml"));
        let xml = standoff_xml::serialize_document(&so.doc, Default::default());
        if let Err(e) = std::fs::write(&path, &xml) {
            eprintln!("xmark-gen: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "  wrote {} ({:.2} MB)",
            path.display(),
            xml.len() as f64 / 1e6
        );
        let blob_path = out.join(format!("{stem}.blob"));
        if let Err(e) = std::fs::write(&blob_path, so.blob.as_bytes()) {
            eprintln!("xmark-gen: cannot write {}: {e}", blob_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "  wrote {} ({:.2} MB BLOB)",
            blob_path.display(),
            so.blob.len() as f64 / 1e6
        );
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("xmark-gen: {err}");
    }
    eprintln!("usage: xmark-gen [--scale F] [--seed N] [--out DIR] [--standard] [--standoff]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
