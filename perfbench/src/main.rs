//! Host-clock benchmark of the QCF engine, driven only through its public
//! API from one process and one calling thread.
//!
//! ```text
//! perfbench --workload <tn-energy|sv-gates|sv-oocore|codec-corpus>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --describe [run_seconds]     # prints BENCHMARK.json
//! ```
//!
//! With `--trace 0` the run measures untraced for `--seconds` and prints
//! the end-to-end metrics. With `--trace 1` it measures untraced for half
//! the time and traced (spans around every public boundary) for the other
//! half, and prints the per-layer metrics. The last line of standard output
//! is one JSON object; the exit code is 1 when a correctness check failed.
//! All files go under `.bench_out/` in the working directory.

mod corpus;
mod report;
mod spec;
mod sv;
mod tn;
mod trace;

use qcircuit::QaoaParams;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Settings of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Seconds of untraced measurement.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// A derived seed for input stream `stream` of this run.
    pub fn derive(&self, stream: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(stream))
    }

    /// QAOA angles around `base`, each scaled by a factor in [0.85, 1.15)
    /// drawn from input stream `stream`: the angle points an optimizer
    /// would evaluate near the fixed-angle optimum.
    pub fn angles(&self, base: &QaoaParams, stream: u64) -> QaoaParams {
        let mut k = 0;
        let mut jitter = |a: &f64| {
            k += 1;
            let u = (self.derive(stream.wrapping_mul(64) + k) >> 11) as f64 / (1u64 << 53) as f64;
            a * (0.85 + 0.3 * u)
        };
        let gammas = base.gammas.iter().map(&mut jitter).collect();
        let betas = base.betas.iter().map(&mut jitter).collect();
        QaoaParams::new(gammas, betas)
    }
}

/// A fixed seed for structure shared by every run (graphs), so that the
/// work a pass does is the same for every `--seed`.
pub fn fixed_seed(stream: u64) -> u64 {
    splitmix64(splitmix64(stream))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    eprintln!("       perfbench --describe [run_seconds]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--describe") {
        let secs = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(25);
        print!("{}", spec::describe(secs));
        return ExitCode::SUCCESS;
    }
    // The engine reads QCF_* settings (cache, budget, spill latency, ledger
    // measurement, worker count, telemetry) from the environment; any of
    // them would silently change what is measured.
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("QCF_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark configures the engine only through its public setters",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown argument {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds (> 0) and --trace (0|1) are required");
    };
    let out_dir = PathBuf::from(".bench_out");
    let tmp = out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // Spill logs go to the temp directory; keep them inside the working
    // directory. No thread has started yet.
    match std::fs::canonicalize(&tmp) {
        Ok(abs) => std::env::set_var("TMPDIR", abs),
        Err(e) => {
            eprintln!("perfbench: cannot resolve {}: {e}", tmp.display());
            return ExitCode::FAILURE;
        }
    }
    qcf_telemetry::set_enabled(false);
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        out_dir,
    };
    let mut rep = Report::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = gpu_model::exec::worker_count();
    rep.set("host.cores", cores as f64);
    rep.set("host.workers", workers as f64);
    rep.note(format!(
        "workload {workload}, seed {seed}, host clock, {cores} cores, {workers} executor workers, telemetry off"
    ));
    let tracer = trace::Tracer::new();
    match workload.as_str() {
        "tn-energy" => tn::run(&ctx, &tracer, &mut rep),
        "sv-gates" => sv::run(&ctx, &tracer, &mut rep, false),
        "sv-oocore" => sv::run(&ctx, &tracer, &mut rep, true),
        "codec-corpus" => corpus::run(&ctx, &tracer, &mut rep),
        other => return usage(&format!("unknown workload {other}")),
    }
    if trace {
        let path = ctx.out_dir.join(format!("spans-{workload}-{seed}.tsv"));
        match tracer.write_tsv(&path) {
            Ok(()) => rep.note(format!("spans written to {}", path.display())),
            Err(e) => rep.check(&format!("write {}: {e}", path.display()), false),
        }
    }
    rep.print(trace);
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
