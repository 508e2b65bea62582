//! Runs every figure/experiment reproduction in sequence and prints the
//! combined paper-vs-measured report (the source of EXPERIMENTS.md).
//!
//! Exits non-zero when an experiment fails or any report line is
//! `[DEVIATES]`, so the paper's figure claims gate CI.

use cellsync_bench::experiments;

/// A named experiment entry point taking the RNG seed.
type Job = (&'static str, fn(u64) -> experiments::ExpResult);

fn main() {
    let jobs: Vec<Job> = vec![
        ("fig2", experiments::run_fig2),
        ("fig3", experiments::run_fig3),
        ("fig4", experiments::run_fig4),
        ("fig5", experiments::run_fig5),
        ("paramfit", experiments::run_paramfit),
        ("ablations", experiments::run_ablations),
        ("genome_wide", experiments::run_genome_wide),
    ];
    let mut failed = false;
    let mut deviations = 0usize;
    for (name, job) in jobs {
        println!("=== {name} ===");
        match job(42) {
            Ok(lines) => {
                for line in lines {
                    deviations += usize::from(line.contains("[DEVIATES]"));
                    println!("{line}");
                }
            }
            Err(e) => {
                eprintln!("{name} failed: {e}");
                failed = true;
            }
        }
        println!();
    }
    if deviations > 0 {
        eprintln!("{deviations} report line(s) DEVIATE from the paper");
    }
    if failed || deviations > 0 {
        std::process::exit(1);
    }
}
