//! Experiment harness CLI.
//!
//! ```text
//! experiments [e1|e2|...|e11|all]... [--quick] [--out DIR]
//!             [--trace FILE] [--metrics FILE] [--phases]
//! ```
//!
//! Prints each regenerated table and writes JSON records (default
//! `results/`). Every id is resolved before any experiment runs, so an
//! unknown one exits 2 having run and written nothing. `--trace` writes a
//! Chrome-trace JSON of all spans recorded across the run, `--metrics`
//! dumps the telemetry registry (TSV, or JSON with a `.json` extension),
//! and `--phases` prints the per-phase time breakdown table after the
//! experiments finish.

use qcf_bench::cli::args;
use qcf_bench::experiments;
use qcf_bench::{cli, report};
use std::path::Path;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // A malformed QCF_* variable or flag exits 2 before any experiment runs.
    args::refuse_malformed_env();
    let a =
        args::parse(args::EXPERIMENTS, &argv).unwrap_or_else(|e| args::refuse("experiments", &e));
    let phases = a.switch("--phases");
    let trace_path = a.text("--trace");
    let metrics_path = a.text("--metrics");
    if trace_path.is_some() || metrics_path.is_some() || phases {
        // Explicit telemetry request overrides QCF_TELEMETRY=0.
        qcf_telemetry::set_enabled(true);
    }
    let out_dir = a.text("--out").unwrap_or("results");
    let ids = match a.operands.as_slice() {
        [] => &["all"][..],
        ids => ids,
    };

    let runs = experiments::resolve(ids).unwrap_or_else(|id| {
        eprintln!("unknown experiment '{id}' (expected e1..e11 or all)");
        std::process::exit(2);
    });

    for (id, run) in runs {
        let started = std::time::Instant::now();
        let tables = run(a.switch("--quick"));
        for (k, table) in tables.iter().enumerate() {
            table.print();
            // Tables carry unique experiment ids; suffix only when
            // one experiment emits several tables under one id.
            let dup = tables.iter().filter(|t| t.id == table.id).count() > 1;
            let suffix = if dup { Some(k) } else { None };
            if let Err(e) = table.save_json(Path::new(out_dir), suffix) {
                eprintln!("warning: could not save {}: {e}", table.id);
            }
        }
        eprintln!("[{id} done in {:.1}s]", started.elapsed().as_secs_f64());
    }

    if phases {
        report::phase_table(&qcf_telemetry::span::snapshot()).print();
        report::metrics_table().print();
    }
    if let Some(path) = trace_path {
        // Experiments run everything host-side; only span lanes here.
        match cli::write_trace(Path::new(path), &[]) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => eprintln!("warning: could not write trace: {e}"),
        }
    }
    if let Some(path) = metrics_path {
        match cli::write_metrics(Path::new(path)) {
            Ok(()) => eprintln!("metrics written to {path}"),
            Err(e) => eprintln!("warning: could not write metrics: {e}"),
        }
    }
}
