//! `qcfz` — compress/decompress f64 files with any compressor of the suite.
//!
//! ```text
//! qcfz list
//! qcfz compress <in.f64> <out.qcfz> [--compressor NAME] [--rel X | --abs X]
//! qcfz decompress <in.qcfz> <out.f64>
//! qcfz info <in.qcfz>
//! qcfz qaoa [--nodes N] [--seed S] [--compressor NAME] [--rel X | --abs X]
//! qcfz state [--nodes N] [--seed S] [--chunk-qubits C] [--chunk ID]
//!            [--mem-budget BYTES[k|m|g]] [--no-prefetch]
//! qcfz top [--nodes N] [--seed S] [--mem-budget BYTES] [--interval MS] [--once]
//! qcfz slo [--print] [--nodes N] [--seed S] [--mem-budget BYTES] [--interval MS]
//!          [--explain ALERT] [--expect-firing a,b]
//! qcfz verify <in.qcfz>
//! qcfz verify --state [--nodes N] [--seed S] [--chunk C]
//!             [--compressor NAME] [--rel X | --abs X] [--mem-budget BYTES]
//! qcfz checkpoint [--out state.qcfs] [--from prev.qcfs] [--gates G]
//!                 [--nodes N] [--seed S] [--chunk-qubits C]
//!                 [--compressor NAME] [--rel X | --abs X] [--mem-budget BYTES]
//! qcfz resume <state.qcfs> [--verify] [--mem-budget BYTES] [--no-prefetch]
//! qcfz report [--out report.md] [--json BENCH_report.json]
//!             [--baseline BENCH_report.json --check] [--diff BENCH_report.json]
//! ```
//!
//! `checkpoint` runs a QAOA circuit up to `--gates G` gates (default:
//! all) and commits a durable snapshot — atomically: a crash at any
//! commit boundary leaves the old snapshot or the new one, never a torn
//! file. `--from prev.qcfs` continues a previous snapshot instead of
//! starting fresh (geometry/codec/bound come from the snapshot), so long
//! runs advance checkpoint-to-checkpoint. `resume` restores a snapshot
//! and finishes its run; `--verify` scrubs every restored chunk against
//! its ledger bound first and exits nonzero unless the state settles
//! clean. Under `QCF_FAULTS=ckpt.kill_point@N` the writer "crashes" at
//! commit boundary N and qcfz exits with code 3 (the crash-drill hook).
//!
//! `slo` evaluates the active service-level objectives (`QCF_SLO` rules or
//! the built-in defaults) against a sampled compressed-state run and exits
//! nonzero when the verdict fails — no alert may end firing, unless
//! `--expect-firing` names alerts that MUST fire during the run (still
//! firing or fired-then-resolved — the CI fault drill).
//! `report --diff <baseline.json>` checks against a stored baseline like
//! `--baseline --check` and additionally prints the ranked movement
//! attribution: which keys moved most and which SLO dimension each
//! endangers.
//!
//! `verify <file>` scrubs a compressed stream (frame checksum + full
//! decode); `verify --state` runs a QAOA circuit on the chunk-compressed
//! state and scrubs every chunk against its error-budget ledger bound.
//! With `--mem-budget BYTES` (or `QCF_MEM_BUDGET`) cold sealed frames
//! spill to a per-state disk log and are prefetched back along the gate
//! schedule; the scrub then reads the on-disk frames through the same
//! decode path, so disk corruption falls under the same contract.
//! With `QCF_FAULTS` set (see qcf-telemetry's fault grammar) the state run
//! executes under injected faults and exits nonzero unless every injected
//! storage corruption was detected and healed or quarantined.
//!
//! Every subcommand that does work accepts `--trace out.json` (Chrome-trace
//! JSON: host span lanes plus the simulated stream's kernel lane, loadable
//! in `chrome://tracing` / `ui.perfetto.dev`) and `--metrics out.tsv`
//! (flat registry dump; `.json` extension switches the format).
//!
//! With `QCF_FLIGHT_RECORD` set, every run keeps a bounded ring of
//! telemetry checkpoints; on error the ring is dumped next to the failure
//! (and at normal exit too when the variable names a path).

use gpu_model::{DeviceSpec, Stream};
use qcf_bench::{cli, run_report};
use std::path::Path;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `--mem-budget SIZE` — bytes with optional k/m/g (binary) suffix. A
/// malformed value is a hard CLI error here (the `QCF_MEM_BUDGET` env var
/// is the warn-and-ignore path; an explicit flag should fail loudly).
fn parse_mem_budget(args: &[String]) -> Result<Option<usize>, cli::CliError> {
    match flag(args, "--mem-budget") {
        None => Ok(None),
        Some(raw) => qtensor::parse_size(raw)
            .map(Some)
            .map_err(|e| cli::CliError(format!("bad --mem-budget value: {e}"))),
    }
}

/// Writes `--trace` / `--metrics` outputs when requested.
fn export_telemetry(
    args: &[String],
    lanes: &[qcf_telemetry::StreamLane],
) -> Result<(), cli::CliError> {
    if let Some(path) = flag(args, "--trace") {
        cli::write_trace(Path::new(path), lanes)?;
        eprintln!("trace written to {path}");
    }
    if let Some(path) = flag(args, "--metrics") {
        cli::write_metrics(Path::new(path))?;
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .iter()
        .any(|a| a == "--trace" || a == "--metrics" || a == "report")
    {
        // Explicit export request overrides QCF_TELEMETRY=0 (`report` is
        // an export request by definition).
        qcf_telemetry::set_enabled(true);
    }
    // Scoped registry reset: spans and metric values start from zero for
    // this subcommand, so counters from an earlier run in the same process
    // (tests, `report`'s phases, embedding tools) never bleed into the
    // exports below.
    let _scope = qcf_telemetry::RunScope::enter();
    // A malformed QCF_FAULTS must never silently disarm a chaos drill: a
    // typo'd spec would otherwise run fault-free and pass vacuously. Fail
    // the invocation as a usage error instead (exit 2).
    if std::env::var("QCF_FAULTS").is_ok_and(|v| !v.trim().is_empty()) {
        qcf_telemetry::faults::armed(); // first call arms (or rejects) the env spec
        if let Some(e) = qcf_telemetry::faults::spec_error() {
            eprintln!("error: QCF_FAULTS is malformed: {e}");
            std::process::exit(2);
        }
    }
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            println!("available compressors:\n{}", cli::list());
            Ok(())
        }
        Some("compress") if args.len() >= 3 => {
            let comp = flag(&args, "--compressor").unwrap_or("QCF-ratio");
            cli::parse_bound(flag(&args, "--rel"), flag(&args, "--abs")).and_then(|bound| {
                let stream = Stream::new(DeviceSpec::a100());
                let s = cli::compress_file_on(
                    Path::new(&args[1]),
                    Path::new(&args[2]),
                    comp,
                    bound,
                    &stream,
                )?;
                println!(
                    "{} values -> {} bytes ({:.1}x) in {:.3} A100-model ms",
                    s.n_values,
                    s.compressed_bytes,
                    s.ratio,
                    s.simulated_s * 1e3
                );
                export_telemetry(&args, &[stream.telemetry_lane("A100 stream")])
            })
        }
        Some("decompress") if args.len() >= 3 => {
            let stream = Stream::new(DeviceSpec::a100());
            cli::decompress_file_on(Path::new(&args[1]), Path::new(&args[2]), &stream)
                .map(|n| println!("restored {n} values"))
                .and_then(|()| export_telemetry(&args, &[stream.telemetry_lane("A100 stream")]))
        }
        Some("info") if args.len() >= 2 => {
            cli::info(Path::new(&args[1])).map(|line| println!("{line}"))
        }
        Some("qaoa") => {
            let nodes = flag(&args, "--nodes")
                .and_then(|v| v.parse().ok())
                .unwrap_or(10);
            let seed = flag(&args, "--seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(21);
            let comp = flag(&args, "--compressor").unwrap_or("QCF-ratio");
            cli::parse_bound(flag(&args, "--rel"), flag(&args, "--abs")).and_then(|bound| {
                let s = cli::qaoa_demo(nodes, seed, comp, bound)?;
                println!(
                    "QAOA n={nodes}: energy {:.6}, {} intermediates compressed ({:.1}x), \
                     peak live {} bytes, {:.3} A100-model ms on the compressor stream",
                    s.energy,
                    s.tensors_compressed,
                    s.ratio,
                    s.peak_live_bytes,
                    s.simulated_s * 1e3
                );
                export_telemetry(&args, std::slice::from_ref(&s.stream_lane))
            })
        }
        Some("state") => {
            let nodes: usize = flag(&args, "--nodes")
                .and_then(|v| v.parse().ok())
                .unwrap_or(10);
            let seed = flag(&args, "--seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(21);
            // Default to 8 chunks. (`--chunk-qubits` is the canonical
            // spelling; bare `--chunk` here names a chunk *id* whose causal
            // journal to print.)
            let chunk = flag(&args, "--chunk-qubits")
                .and_then(|v| v.parse().ok())
                .unwrap_or(nodes.saturating_sub(3));
            let chunk_id: Option<u64> = flag(&args, "--chunk").and_then(|v| v.parse().ok());
            let comp = flag(&args, "--compressor").unwrap_or("QCF-speed");
            cli::parse_bound(flag(&args, "--rel"), flag(&args, "--abs"))
                .and_then(|bound| {
                    let mut cfg = cli::StateRunCfg::new(nodes, seed, chunk, comp);
                    cfg.bound = bound;
                    cfg.journal_chunk = chunk_id;
                    cfg.mem_budget = parse_mem_budget(&args)?;
                    cfg.prefetch = !args.iter().any(|a| a == "--no-prefetch");
                    Ok(cfg)
                })
                .and_then(|cfg| {
                    let s = cli::state_demo(&cfg)?;
                    let st = &s.stats;
                    println!(
                        "compressed state n={nodes}: energy {:.6}, resident {} bytes (dense {}), \
                     {} decompressions, {} recompressions",
                        s.energy,
                        st.resident_bytes,
                        s.dense_bytes,
                        st.decompressions,
                        st.recompressions
                    );
                    let t = &s.tiers;
                    println!(
                        "tiers: {} bytes compressed in RAM / \
                     {} bytes spilled across {} chunks (log {} bytes, budget {})",
                        t.ram_compressed_bytes,
                        t.spilled_bytes,
                        t.spilled_chunks,
                        t.spill_file_bytes,
                        s.mem_budget
                            .map(|b| b.to_string())
                            .unwrap_or_else(|| "unbounded".into())
                    );
                    if st.spills > 0 || st.fetches > 0 {
                        let fetched = st.prefetch_hits + st.prefetch_misses;
                        println!(
                            "spill: {} writes / {} fetches, prefetch {} hits / {} misses \
                         ({:.0}% hit rate), stalled {} us",
                            st.spills,
                            st.fetches,
                            st.prefetch_hits,
                            st.prefetch_misses,
                            if fetched == 0 {
                                0.0
                            } else {
                                100.0 * st.prefetch_hits as f64 / fetched as f64
                            },
                            st.prefetch_stall_us
                        );
                    }
                    if st.compactions > 0 {
                        println!(
                            "spill log: {} compaction{} reclaimed {} dead bytes",
                            st.compactions,
                            if st.compactions == 1 { "" } else { "s" },
                            st.spill_reclaimed_bytes
                        );
                    }
                    let l = &s.ledger;
                    println!(
                        "error-budget ledger: {} requants over {} chunks (max {} per chunk), \
                     accumulated bound max {:.3e} / state RSS {:.3e}{}",
                        l.total_requants,
                        l.chunks,
                        l.max_requants,
                        l.max_accumulated_bound,
                        l.accumulated_rss,
                        if l.lossy { "" } else { " (lossless: exact)" }
                    );
                    if let Some(chain) = &s.chain {
                        print_chunk_chain(chain)?;
                    }
                    export_telemetry(&args, &[])
                })
        }
        Some("top") => {
            let nodes: usize = flag(&args, "--nodes")
                .and_then(|v| v.parse().ok())
                .unwrap_or(12);
            let seed = flag(&args, "--seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(21);
            let comp = flag(&args, "--compressor").unwrap_or("QCF-speed");
            cli::parse_bound(flag(&args, "--rel"), flag(&args, "--abs")).and_then(|bound| {
                let mut cfg = qcf_bench::top::TopConfig::new(nodes, seed, comp, bound);
                if let Some(c) = flag(&args, "--chunk-qubits").and_then(|v| v.parse().ok()) {
                    cfg.chunk_qubits = c;
                }
                cfg.mem_budget = parse_mem_budget(&args)?;
                if let Some(ms) = flag(&args, "--interval").and_then(|v| v.parse().ok()) {
                    cfg.interval_ms = ms;
                }
                cfg.once = args.iter().any(|a| a == "--once");
                qcf_bench::top::run(&cfg).map(|_| ())
            })
        }
        Some("slo") => {
            let nodes: usize = flag(&args, "--nodes")
                .and_then(|v| v.parse().ok())
                .unwrap_or(10);
            let seed = flag(&args, "--seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(21);
            let comp = flag(&args, "--compressor").unwrap_or("QCF-speed");
            cli::parse_bound(flag(&args, "--rel"), flag(&args, "--abs")).and_then(|bound| {
                let mut cfg = qcf_bench::slo_cmd::SloConfig::new(nodes, seed, comp, bound);
                if let Some(c) = flag(&args, "--chunk-qubits").and_then(|v| v.parse().ok()) {
                    cfg.chunk_qubits = c;
                }
                cfg.mem_budget = parse_mem_budget(&args)?;
                if let Some(ms) = flag(&args, "--interval").and_then(|v| v.parse().ok()) {
                    cfg.interval_ms = ms;
                }
                cfg.print_spec = args.iter().any(|a| a == "--print");
                cfg.explain = flag(&args, "--explain").map(str::to_string);
                cfg.expect_firing = flag(&args, "--expect-firing")
                    .map(|v| {
                        v.split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                let out = qcf_bench::slo_cmd::run(&cfg)?;
                print!("{}", out.text);
                if out.ok {
                    Ok(())
                } else {
                    return_err("slo verdict failed (see above)".to_string())
                }
            })
        }
        Some("verify") if args.len() >= 2 && args[1] != "--state" => {
            cli::verify_file(Path::new(&args[1])).map(|line| println!("{line}"))
        }
        Some("verify") => {
            let nodes: usize = flag(&args, "--nodes")
                .and_then(|v| v.parse().ok())
                .unwrap_or(10);
            let seed = flag(&args, "--seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(21);
            let chunk = flag(&args, "--chunk")
                .and_then(|v| v.parse().ok())
                .unwrap_or(nodes.saturating_sub(3));
            let comp = flag(&args, "--compressor").unwrap_or("QCF-speed");
            cli::parse_bound(flag(&args, "--rel"), flag(&args, "--abs")).and_then(|bound| {
                let budget = parse_mem_budget(&args)?;
                let s = cli::verify_state(nodes, seed, chunk, comp, bound, budget)?;
                let r = &s.report;
                let f = &s.faults;
                println!(
                    "scrub n={nodes}: {} chunks — {} clean, {} healed, {} quarantined, \
                     {} ledger breaches ({} pass{})",
                    r.chunks,
                    r.clean,
                    r.healed,
                    r.quarantined,
                    r.ledger_breaches,
                    s.scrub_passes,
                    if s.scrub_passes == 1 { "" } else { "es" }
                );
                if s.spills > 0 || s.fetches > 0 {
                    println!(
                        "disk tier: {} spills / {} fetches scrubbed through the frame path",
                        s.spills, s.fetches
                    );
                }
                if s.compactions > 0 {
                    println!(
                        "spill log: {} compaction{} reclaimed {} dead bytes",
                        s.compactions,
                        if s.compactions == 1 { "" } else { "s" },
                        s.spill_reclaimed
                    );
                }
                println!(
                    "faults: {} injected ({} bitflips, {} spill bitflips, {} decode errors) — \
                     detected {} decode failures, {} retries healed, \
                     {} quarantines, {} worker panics, lost norm² {:.3e}",
                    s.injected_total,
                    s.injected_bitflips,
                    s.injected_spill_bitflips,
                    s.injected_decode_errors,
                    f.decode_errors,
                    f.retries_ok,
                    f.quarantines,
                    f.worker_panics,
                    f.lost_norm_sq
                );
                println!(
                    "energy {:.6} ({})",
                    s.energy,
                    if f.quarantines > 0 {
                        "degraded"
                    } else {
                        "exact-path"
                    }
                );
                export_telemetry(&args, &[])?;
                if s.ok() {
                    println!("verify: OK");
                    Ok(())
                } else {
                    return_err(format!(
                        "verify FAILED — settled={}, ledger breaches={}, \
                         detected {}/{} injected storage corruptions",
                        s.settled, s.report.ledger_breaches, f.decode_errors, s.injected_bitflips
                    ))
                }
            })
        }
        Some("checkpoint") => {
            let nodes: usize = flag(&args, "--nodes")
                .and_then(|v| v.parse().ok())
                .unwrap_or(10);
            let seed = flag(&args, "--seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(21);
            let chunk = flag(&args, "--chunk-qubits")
                .and_then(|v| v.parse().ok())
                .unwrap_or(nodes.saturating_sub(3));
            let comp = flag(&args, "--compressor").unwrap_or("QCF-speed");
            let out = flag(&args, "--out").unwrap_or("state.qcfs");
            let from = flag(&args, "--from");
            let gates: Option<usize> = flag(&args, "--gates").and_then(|v| v.parse().ok());
            cli::parse_bound(flag(&args, "--rel"), flag(&args, "--abs")).and_then(|bound| {
                let mut cfg = cli::StateRunCfg::new(nodes, seed, chunk, comp);
                cfg.bound = bound;
                cfg.mem_budget = parse_mem_budget(&args)?;
                cfg.prefetch = !args.iter().any(|a| a == "--no-prefetch");
                let s = cli::checkpoint_demo(&cfg, Path::new(out), from.map(Path::new), gates)?;
                println!(
                    "checkpoint {out}: {} bytes, gate {}/{}{}",
                    s.snapshot_bytes,
                    s.gates_applied,
                    s.total_gates,
                    s.resumed_from
                        .map(|g| format!(" (continued from gate {g})"))
                        .unwrap_or_default(),
                );
                println!("energy {:.6}", s.energy);
                export_telemetry(&args, &[])
            })
        }
        Some("resume") if args.len() >= 2 && !args[1].starts_with("--") => {
            let scrub = args.iter().any(|a| a == "--verify");
            let prefetch = !args.iter().any(|a| a == "--no-prefetch");
            parse_mem_budget(&args).and_then(|budget| {
                let s = cli::resume_demo(Path::new(&args[1]), scrub, prefetch, budget)?;
                println!(
                    "resume {}: {} snapshot at gate {}/{} ({} qubits, seed {})",
                    args[1],
                    s.meta.compressor,
                    s.meta.gates_applied,
                    s.total_gates,
                    s.meta.nodes,
                    s.meta.seed
                );
                if let Some(r) = &s.scrub {
                    println!(
                        "scrub: {} chunks — {} clean, {} healed, {} quarantined, \
                         {} ledger breaches",
                        r.chunks, r.clean, r.healed, r.quarantined, r.ledger_breaches
                    );
                }
                let l = &s.ledger;
                // The drills char-compare this line between a resumed and
                // an uninterrupted run: energy and ledger, no paths.
                println!(
                    "finished: energy {:.6}, {} requants (max {} per chunk), \
                     accumulated bound max {:.3e} / state RSS {:.3e}, \
                     {} quarantines, lost norm² {:.3e}",
                    s.energy,
                    l.total_requants,
                    l.max_requants,
                    l.max_accumulated_bound,
                    l.accumulated_rss,
                    s.faults.quarantines,
                    s.faults.lost_norm_sq
                );
                export_telemetry(&args, &[])?;
                if s.ok() {
                    Ok(())
                } else {
                    return_err(
                        "resume verify FAILED — restored state did not settle clean".to_string(),
                    )
                }
            })
        }
        Some("report") => {
            let nodes: usize = flag(&args, "--nodes")
                .and_then(|v| v.parse().ok())
                .unwrap_or(10);
            let seed = flag(&args, "--seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(21);
            let comp = flag(&args, "--compressor").unwrap_or("QCF-ratio");
            let chunk = flag(&args, "--chunk")
                .and_then(|v| v.parse().ok())
                .unwrap_or(nodes.saturating_sub(3));
            let out = flag(&args, "--out").unwrap_or("qcf-report.md");
            let json = flag(&args, "--json");
            // `--diff <baseline>` = `--baseline <baseline> --check` plus
            // the ranked movement attribution.
            let diff = flag(&args, "--diff");
            let baseline = diff.or(flag(&args, "--baseline"));
            let check = diff.is_some() || args.iter().any(|a| a == "--check");
            // Wall-clock throughput on a 1-core (likely shared) host is
            // noise; CR and ledger invariants are checked regardless. The
            // same core count drives the speedup-gate decision in `check`.
            let strict = run_report::detected_cores() >= 4;
            cli::parse_bound(flag(&args, "--rel"), flag(&args, "--abs")).and_then(|bound| {
                let config = run_report::ReportConfig {
                    nodes,
                    seed,
                    compressor: comp.to_string(),
                    bound,
                    chunk_qubits: chunk,
                };
                let res = run_report::run(
                    config,
                    Path::new(out),
                    json.map(Path::new),
                    baseline.map(Path::new),
                    strict,
                    diff.is_some(),
                )?;
                println!("report written to {out}");
                if let Some(path) = json {
                    println!("baseline JSON written to {path}");
                }
                if !res.attribution.is_empty() {
                    println!("movement attribution vs baseline (largest first):");
                    for line in &res.attribution {
                        println!("  {line}");
                    }
                } else if diff.is_some() {
                    println!("movement attribution vs baseline: no keys moved");
                }
                for w in &res.warnings {
                    eprintln!("warning: {w}");
                }
                if check && !res.ok() {
                    for r in &res.regressions {
                        eprintln!("REGRESSION: {r}");
                    }
                    return_err(format!(
                        "{} regression(s) vs baseline",
                        res.regressions.len()
                    ))
                } else {
                    if !check && !res.regressions.is_empty() {
                        for r in &res.regressions {
                            eprintln!("note (no --check): {r}");
                        }
                    }
                    Ok(())
                }
            })
        }
        _ => {
            eprintln!(
                "usage: qcfz list | compress <in> <out> [--compressor NAME] [--rel X|--abs X] \
                 | decompress <in> <out> | info <in> \
                 | qaoa [--nodes N] [--seed S] [--compressor NAME] [--rel X|--abs X] \
                 | state [--nodes N] [--seed S] [--chunk-qubits C] \
                 [--compressor NAME] [--rel X|--abs X] [--chunk ID] \
                 [--mem-budget BYTES[k|m|g]] [--no-prefetch] \
                 | top [--nodes N] [--seed S] [--chunk-qubits C] \
                 [--compressor NAME] [--rel X|--abs X] [--mem-budget BYTES] \
                 [--interval MS] [--once] \
                 | slo [--print] [--nodes N] [--seed S] [--chunk-qubits C] \
                 [--compressor NAME] [--rel X|--abs X] [--mem-budget BYTES] \
                 [--interval MS] [--explain ALERT] [--expect-firing a,b] \
                 | verify <in.qcfz> \
                 | verify --state [--nodes N] [--seed S] [--chunk C] \
                 [--compressor NAME] [--rel X|--abs X] [--mem-budget BYTES] \
                 | checkpoint [--out state.qcfs] [--from prev.qcfs] [--gates G] \
                 [--nodes N] [--seed S] [--chunk-qubits C] \
                 [--compressor NAME] [--rel X|--abs X] [--mem-budget BYTES] \
                 | resume <state.qcfs> [--verify] [--mem-budget BYTES] [--no-prefetch] \
                 | report [--nodes N] [--seed S] [--chunk C] [--compressor NAME] \
                 [--rel X|--abs X] [--out report.md|.html] [--json BENCH_report.json] \
                 [--baseline BENCH_report.json] [--check] [--diff BENCH_report.json]\n\
                 any work subcommand also takes [--trace out.json] [--metrics out.tsv]; \
                 set QCF_SLO to declare service-level objectives (see `qcfz slo --print`); \
                 set QCF_FLIGHT_RECORD[=path] to keep a dumpable telemetry flight ring"
            );
            std::process::exit(2);
        }
    };
    match result {
        Err(e) => {
            eprintln!("error: {e}");
            // Post-mortem: dump the flight ring next to the failure (no-op
            // unless QCF_FLIGHT_RECORD armed the recorder).
            match qcf_telemetry::flight::dump(&format!("error: {e}"), None) {
                Ok(Some(path)) => eprintln!("flight record dumped to {}", path.display()),
                Ok(None) => {}
                Err(io) => eprintln!("flight record dump failed: {io}"),
            }
            // A simulated kill-point crash is its own exit code so the
            // crash drills can tell "died at the boundary as planned"
            // from a real failure.
            let code = if e.0.contains("ckpt.kill_point@") {
                3
            } else {
                1
            };
            std::process::exit(code);
        }
        Ok(()) => {
            // On-demand record: when QCF_FLIGHT_RECORD names a path, write
            // the ring at normal exit too.
            if qcf_telemetry::flight::dump_path().is_some() {
                match qcf_telemetry::flight::dump("exit", None) {
                    Ok(Some(path)) => eprintln!("flight record written to {}", path.display()),
                    Ok(None) => {}
                    Err(io) => eprintln!("flight record dump failed: {io}"),
                }
            }
        }
    }
}

/// Tiny helper so the `report` arm can early-return a typed error.
fn return_err(msg: String) -> Result<(), cli::CliError> {
    Err(cli::CliError(msg))
}

/// Prints one chunk's causal journal chain next to its ledger row and
/// enforces the consistency contract (`qcfz state --chunk <id>` exits
/// nonzero when the journal cannot explain the ledger).
fn print_chunk_chain(chain: &cli::ChunkChain) -> Result<(), cli::CliError> {
    use qcf_telemetry::journal::EventKind;
    let r = &chain.record;
    println!(
        "\ncausal chain for chunk {}:\n\
         ledger: {} encodes, {} requants, {} quarantines, accumulated bound {:.3e}",
        chain.id, r.encodes, r.requants, r.quarantines, r.accumulated_bound
    );
    let counts = EventKind::all()
        .iter()
        .map(|k| format!("{} {}", k.label(), chain.kind_counts[k.index()]))
        .collect::<Vec<_>>()
        .join(", ");
    println!("journal: {counts}");
    println!(
        "events (newest {} of {}; {} older dropped from the ring):",
        chain.events.len(),
        chain.events.len() as u64 + chain.dropped,
        chain.dropped
    );
    let (seq, t_us, event) = ("seq", "t_us", "event");
    println!("  {seq:>8} {t_us:>10}  {event:<17} detail");
    for e in &chain.events {
        println!(
            "  {:>8} {:>10}  {:<17} {}",
            e.seq,
            e.t_us,
            e.kind.label(),
            e.detail
        );
    }
    if chain.consistent() {
        println!(
            "consistency: journal requants {} == ledger {}, quarantines {} == {} — OK",
            chain.kind_counts[EventKind::WritebackRequant.index()],
            r.requants,
            chain.kind_counts[EventKind::Quarantine.index()],
            r.quarantines
        );
        Ok(())
    } else {
        return_err(format!(
            "journal/ledger mismatch on chunk {}: journal requants {} vs ledger {}, \
             journal quarantines {} vs ledger {}",
            chain.id,
            chain.kind_counts[EventKind::WritebackRequant.index()],
            r.requants,
            chain.kind_counts[EventKind::Quarantine.index()],
            r.quarantines
        ))
    }
}
