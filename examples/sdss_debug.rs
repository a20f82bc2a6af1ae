//! The paper's §2.2 "Debug Experimental Results" use case.
//!
//! SDSS-style scenario: administrators silently upgrade the JVM on the
//! compute image; a researcher's pipeline starts producing flawed output.
//! Without provenance the change is invisible. With provenance, diffing
//! the lineage of a good output against a bad one surfaces the new JVM
//! immediately.
//!
//! Run with: `cargo run --example sdss_debug`

use std::sync::Arc;

use cloudprov::cloud::{AwsProfile, CloudEnv, RunContext};
use cloudprov::fs::{LocalIoParams, PaS3fs};
use cloudprov::pass::{Attr, Pid, ProcessInfo};
use cloudprov::sim::Sim;
use cloudprov::{Protocol, ProvenanceClient};

fn run_pipeline(fs: &PaS3fs, pid: u64, jvm: &str, output: &str) {
    fs.exec(
        Pid(pid),
        ProcessInfo {
            name: "photo-pipeline".into(),
            argv: vec![
                "java".into(),
                "-jar".into(),
                "sdss-reduce.jar".into(),
                output.into(),
            ],
            env: format!("JAVA_HOME={jvm}"),
            exe_path: Some(jvm.to_string() + "/bin/java"),
            ..Default::default()
        },
    );
    fs.read(Pid(pid), "/sdss/raw/frame-001.fits", 8 << 20);
    fs.read(Pid(pid), "/sdss/calib/flatfield.fits", 1 << 20);
    fs.write(Pid(pid), output, 2 << 20);
    fs.close(Pid(pid), output).expect("flush");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::calibrated(RunContext::default()));
    let client = Arc::new(ProvenanceClient::builder(Protocol::P2).build(&env));
    let fs = PaS3fs::attach(client, LocalIoParams::default(), 7);

    // Monday: results are good.
    run_pipeline(&fs, 200, "/opt/jvm-1.5.0_16", "/sdss/out/monday.fits");
    // Admins upgrade the JVM overnight, unbeknownst to the researcher.
    // Tuesday: results look flawed.
    run_pipeline(&fs, 201, "/opt/jvm-1.6.0_07", "/sdss/out/tuesday.fits");

    // Debug by diffing provenance: compare the ancestor closures of the
    // two outputs in the ground-truth DAG PASS collected.
    let diff = fs
        .with_observer(|obs| {
            let g = obs.graph();
            let monday = obs.file_node("/sdss/out/monday.fits").unwrap();
            let tuesday = obs.file_node("/sdss/out/tuesday.fits").unwrap();
            let attrs_of = |id| {
                let mut set = std::collections::BTreeSet::new();
                for a in g.ancestors(id).into_iter().chain([id]) {
                    if let Some(node) = g.node(a) {
                        for (attr, value) in &node.attrs {
                            if matches!(attr, Attr::Env | Attr::Name | Attr::Argv) {
                                set.insert(format!("{attr}={value}"));
                            }
                        }
                    }
                }
                set
            };
            let a = attrs_of(monday);
            let b = attrs_of(tuesday);
            let only_tuesday: Vec<String> = b.difference(&a).cloned().collect();
            let only_monday: Vec<String> = a.difference(&b).cloned().collect();
            (only_monday, only_tuesday)
        })
        .expect("provenance-aware fs");

    println!("provenance diff of monday.fits vs tuesday.fits");
    println!("  only in monday's lineage:");
    for line in &diff.0 {
        println!("    - {line}");
    }
    println!("  only in tuesday's lineage:");
    for line in &diff.1 {
        println!("    + {line}");
    }

    // The JVM change is immediately visible.
    assert!(diff.1.iter().any(|l| l.contains("jvm-1.6.0_07")));
    assert!(diff.0.iter().any(|l| l.contains("jvm-1.5.0_16")));
    println!("\n=> the silent JVM upgrade is exposed by the provenance diff");
    Ok(())
}
