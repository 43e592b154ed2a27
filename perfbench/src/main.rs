//! The benchmark of the indexed cache.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <point-serve|analytic-join|append-views|oversize-serve> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its workload from the seed, sets it up, measures
//! for `--seconds`, checks every result, and prints a human-readable
//! record followed by one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer ledger with `--trace 1`. See
//! `perfbench/NOTES.md` for why each workload exists and which layer
//! metric should move which end-to-end metric.

mod analytic_join;
mod append_views;
mod harness;
mod layers;
mod oracle;
mod oversize_serve;
mod point_serve;
mod serve;
mod snb_oracle;
mod stats;
mod trace;

use harness::{Args, Report};

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    harness::start_watchdog(harness::WATCHDOG);
    // Spill images and other temporary files stay inside the checkout.
    let tmp = std::env::current_dir()
        .expect("working directory")
        .join(format!("perfbench/out/tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temporary directory");
    std::env::set_var("TMPDIR", &tmp);
    let report: Report = match args.workload.as_str() {
        "point-serve" => point_serve::run(&args),
        "analytic-join" => analytic_join::run(&args),
        "append-views" => append_views::run(&args),
        "oversize-serve" => oversize_serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if args.trace {
        let have: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        for (name, _) in layers::PER_LAYER {
            assert!(have.contains(name), "traced run is missing {name}");
        }
        assert_eq!(have.len(), layers::PER_LAYER.len(), "no duplicate metrics");
    }
    for line in &report.record {
        println!("{line}");
    }
    for p in &report.problems {
        println!("FAILED CHECK: {p}");
    }
    let _ = std::fs::remove_dir_all(&tmp);
    println!("{}", report.json());
}
