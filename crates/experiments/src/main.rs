//! `sg-experiments` — regenerate the paper's tables and figures. See
//! [`sg_experiments::cli::SPEC`] for the command line.

use sg_experiments::cli::{parse_args, SPEC};
use sg_experiments::{parallel, ExpProfile, JsonSink, Suite, FIGURES};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|e| SPEC.fail(&e));
    if cli.help {
        print!("{}", SPEC.usage());
        return;
    }
    if let Some(n) = cli.threads {
        parallel::set_threads(n);
    }

    let mut suite = Suite::new(ExpProfile::new(cli.full));
    let (profile, threads) = (suite.profile, parallel::threads());
    println!(
        "SurgeGuard reproduction — {} profile ({} trials, {} measurement, {} worker thread{})",
        if cli.full { "full" } else { "quick" },
        profile.trials,
        profile.measure,
        threads,
        if threads == 1 { "" } else { "s" },
    );

    let suite_t0 = Instant::now();
    let mut sink = JsonSink::new();
    for name in &cli.experiments {
        let t0 = Instant::now();
        let (_, run) = FIGURES.iter().find(|(n, _)| n == name).expect("parsed");
        for t in run(&mut suite, &mut sink) {
            print!("{}", t.render());
        }
        println!("\n[{} done in {:.1?}]", name, t0.elapsed());
    }

    let s = suite.stats;
    println!(
        "\n[suite done in {:.1?} on {threads} worker thread(s)]",
        suite_t0.elapsed()
    );
    println!(
        "[trial batches: {} run, {} reused; calibrations: {}]",
        s.batches_run, s.batches_reused, s.prepares
    );

    if let Some(path) = cli.json {
        let value = sink.into_value();
        std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("JSON rows written to {path}");
    }
}
