//! `qcfz` — compress/decompress f64 files with any compressor of the suite.
//!
//! ```text
//! qcfz list | info <in.qcfz> | verify <in.qcfz>
//! qcfz compress <in.f64> <out.qcfz> | decompress <in.qcfz> <out.f64>
//! qcfz qaoa | state | top | slo | verify --state | checkpoint | report
//! qcfz resume <state.qcfs>
//! ```
//!
//! Each subcommand's flags are its usage line in
//! [`qcf_bench::cli::args::QCFZ`], which `qcfz` prints on a usage error and
//! checks every command line against: an unknown flag, a flag without its
//! value or a malformed value (`--nodes banana`, `--mem-budget 1.5k`)
//! exits 2 naming the flag, and so does a malformed `QCF_*` variable,
//! before any work.
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
//! endangers — hard-gated keys first, host throughput in its own section.
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
//! `compress`, `decompress`, `qaoa`, `state`, `verify --state`,
//! `checkpoint` and `resume` accept `--trace out.json` (Chrome-trace JSON:
//! host span lanes plus the simulated stream's kernel lane, loadable in
//! `chrome://tracing` / `ui.perfetto.dev`) and `--metrics out.tsv` (flat
//! registry dump; `.json` extension switches the format).
//!
//! With `QCF_FLIGHT_RECORD` set, a failing run writes a flight dump (the
//! live registry and the sampler ring's tail, labelled with the error),
//! and so does a normal exit when the variable names a path.

use gpu_model::{DeviceSpec, Stream};
use qcf_bench::cli::args::{self, Args};
use qcf_bench::{cli, run_report};
use std::path::Path;

/// Writes `--trace` / `--metrics` outputs when requested.
fn export_telemetry(a: &Args, lanes: &[qcf_telemetry::StreamLane]) -> Result<(), cli::CliError> {
    if let Some(path) = a.text("--trace") {
        cli::write_trace(Path::new(path), lanes)?;
        eprintln!("trace written to {path}");
    }
    if let Some(path) = a.text("--metrics") {
        cli::write_metrics(Path::new(path))?;
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Malformed input never reaches a subcommand: a bad QCF_* variable or
    // flag exits 2 here, before the scope below resets anything.
    args::refuse_malformed_env();
    let a = args::parse(args::QCFZ, &argv).unwrap_or_else(|e| args::refuse("qcfz", &e));
    if a.switch("--trace") || a.switch("--metrics") || a.command == "report" {
        // Explicit export request overrides QCF_TELEMETRY=0 (`report` is
        // an export request by definition).
        qcf_telemetry::set_enabled(true);
    }
    // Scoped registry reset: spans and metric values start from zero for
    // this subcommand, so counters from an earlier run in the same process
    // (tests, `report`'s phases, embedding tools) never bleed into the
    // exports below.
    let _scope = qcf_telemetry::RunScope::enter();
    let result = match a.command {
        "list" => {
            println!("available compressors:\n{}", cli::list());
            Ok(())
        }
        "compress" => compress(&a),
        "decompress" => {
            let stream = Stream::new(DeviceSpec::a100());
            cli::decompress_file_on(Path::new(a.operands[0]), Path::new(a.operands[1]), &stream)
                .map(|n| println!("restored {n} values"))
                .and_then(|()| export_telemetry(&a, &[stream.telemetry_lane("A100 stream")]))
        }
        "info" => cli::info(Path::new(a.operands[0])).map(|line| println!("{line}")),
        "qaoa" => qaoa(&a),
        "state" => state(&a),
        "top" => top(&a),
        "slo" => slo(&a),
        "verify" => cli::verify_file(Path::new(a.operands[0])).map(|line| println!("{line}")),
        "verify --state" => verify_state(&a),
        "checkpoint" => checkpoint(&a),
        "resume" => resume(&a),
        "report" => report(&a),
        name => unreachable!("`{name}` has a usage line but no handler"),
    };
    if let Err(e) = &result {
        eprintln!("error: {e}");
    }
    // Post-mortem on error, and at normal exit too when QCF_FLIGHT_RECORD
    // names a path: write the flight dump (a no-op unless it is armed).
    if result.is_err() || qcf_telemetry::flight::dump_path().is_some() {
        let label = result
            .as_ref()
            .err()
            .map_or("exit".into(), |e| format!("error: {e}"));
        match qcf_telemetry::flight::dump(&label, None) {
            Ok(Some(path)) => eprintln!("flight record written to {}", path.display()),
            Ok(None) => {}
            Err(io) => eprintln!("flight record dump failed: {io}"),
        }
    }
    if let Err(e) = result {
        // A simulated kill-point crash is its own exit code so the crash
        // drills can tell "died at the boundary as planned" from a real
        // failure.
        std::process::exit(if e.0.contains("ckpt.kill_point@") {
            3
        } else {
            1
        });
    }
}

fn compress(a: &Args) -> Result<(), cli::CliError> {
    let stream = Stream::new(DeviceSpec::a100());
    let s = cli::compress_file_on(
        Path::new(a.operands[0]),
        Path::new(a.operands[1]),
        a.text("--compressor").unwrap_or("QCF-ratio"),
        a.bound(),
        &stream,
    )?;
    println!(
        "{} values -> {} bytes ({:.1}x) in {:.3} A100-model ms",
        s.n_values,
        s.compressed_bytes,
        s.ratio,
        s.simulated_s * 1e3
    );
    export_telemetry(a, &[stream.telemetry_lane("A100 stream")])
}

fn qaoa(a: &Args) -> Result<(), cli::CliError> {
    let nodes: usize = a.get("--nodes").unwrap_or(10);
    let comp = a.text("--compressor").unwrap_or("QCF-ratio");
    let s = cli::qaoa_demo(nodes, a.get("--seed").unwrap_or(21), comp, a.bound())?;
    println!(
        "QAOA n={nodes}: energy {:.6}, {} intermediates compressed ({:.1}x), \
         peak live {} bytes, {:.3} A100-model ms on the compressor stream",
        s.energy,
        s.tensors_compressed,
        s.ratio,
        s.peak_live_bytes,
        s.simulated_s * 1e3
    );
    export_telemetry(a, std::slice::from_ref(&s.stream_lane))
}

/// The compressed-state run `state` and `checkpoint` share: 8 chunks by
/// default (`--chunk-qubits`; `state --chunk` names a chunk *id* whose
/// causal journal to print).
fn state_run(a: &Args) -> cli::StateRunCfg {
    let nodes: usize = a.get("--nodes").unwrap_or(10);
    let chunk = a.get("--chunk-qubits").unwrap_or(nodes.saturating_sub(3));
    let comp = a.text("--compressor").unwrap_or("QCF-speed");
    let mut cfg = cli::StateRunCfg::new(nodes, a.get("--seed").unwrap_or(21), chunk, comp);
    cfg.bound = a.bound();
    cfg.mem_budget = a.size("--mem-budget");
    cfg.prefetch = !a.switch("--no-prefetch");
    cfg
}

fn state(a: &Args) -> Result<(), cli::CliError> {
    let mut cfg = state_run(a);
    cfg.journal_chunk = a.get("--chunk");
    let nodes = cfg.nodes;
    let s = cli::state_demo(&cfg)?;
    let st = &s.stats;
    println!(
        "compressed state n={nodes}: energy {:.6}, resident {} bytes (dense {}), \
         {} decompressions, {} recompressions",
        s.energy, st.resident_bytes, s.dense_bytes, st.decompressions, st.recompressions
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
    print_compactions(st.compactions, st.spill_reclaimed_bytes);
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
    export_telemetry(a, &[])
}

fn top(a: &Args) -> Result<(), cli::CliError> {
    let comp = a.text("--compressor").unwrap_or("QCF-speed");
    let mut cfg = qcf_bench::top::TopConfig::new(
        a.get("--nodes").unwrap_or(12),
        a.get("--seed").unwrap_or(21),
        comp,
        a.bound(),
    );
    cfg.chunk_qubits = a.get("--chunk-qubits").unwrap_or(cfg.chunk_qubits);
    cfg.mem_budget = a.size("--mem-budget");
    cfg.interval_ms = a.get("--interval").unwrap_or(cfg.interval_ms);
    cfg.once = a.switch("--once");
    qcf_bench::top::run(&cfg).map(|_| ())
}

fn slo(a: &Args) -> Result<(), cli::CliError> {
    let comp = a.text("--compressor").unwrap_or("QCF-speed");
    let mut cfg = qcf_bench::slo_cmd::SloConfig::new(
        a.get("--nodes").unwrap_or(10),
        a.get("--seed").unwrap_or(21),
        comp,
        a.bound(),
    );
    cfg.chunk_qubits = a.get("--chunk-qubits").unwrap_or(cfg.chunk_qubits);
    cfg.mem_budget = a.size("--mem-budget");
    cfg.interval_ms = a.get("--interval").unwrap_or(cfg.interval_ms);
    cfg.print_spec = a.switch("--print");
    cfg.explain = a.text("--explain").map(str::to_string);
    cfg.expect_firing = a
        .text("--expect-firing")
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
        Err(cli::CliError("slo verdict failed (see above)".to_string()))
    }
}

fn verify_state(a: &Args) -> Result<(), cli::CliError> {
    let nodes: usize = a.get("--nodes").unwrap_or(10);
    let chunk = a.get("--chunk").unwrap_or(nodes.saturating_sub(3));
    let comp = a.text("--compressor").unwrap_or("QCF-speed");
    let budget = a.size("--mem-budget");
    let s = cli::verify_state(
        nodes,
        a.get("--seed").unwrap_or(21),
        chunk,
        comp,
        a.bound(),
        budget,
    )?;
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
    print_compactions(s.compactions, s.spill_reclaimed);
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
    export_telemetry(a, &[])?;
    if s.ok() {
        println!("verify: OK");
        Ok(())
    } else {
        Err(cli::CliError(format!(
            "verify FAILED — settled={}, ledger breaches={}, \
             detected {}/{} injected storage corruptions",
            s.settled, s.report.ledger_breaches, f.decode_errors, s.injected_bitflips
        )))
    }
}

fn checkpoint(a: &Args) -> Result<(), cli::CliError> {
    let out = a.text("--out").unwrap_or("state.qcfs");
    let s = cli::checkpoint_demo(
        &state_run(a),
        Path::new(out),
        a.text("--from").map(Path::new),
        a.get("--gates"),
    )?;
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
    export_telemetry(a, &[])
}

fn resume(a: &Args) -> Result<(), cli::CliError> {
    let snap = a.operands[0];
    let s = cli::resume_demo(
        Path::new(snap),
        a.switch("--verify"),
        !a.switch("--no-prefetch"),
        a.size("--mem-budget"),
    )?;
    println!(
        "resume {snap}: {} snapshot at gate {}/{} ({} qubits, seed {})",
        s.meta.compressor, s.meta.gates_applied, s.total_gates, s.meta.nodes, s.meta.seed
    );
    if let Some(r) = &s.scrub {
        println!(
            "scrub: {} chunks — {} clean, {} healed, {} quarantined, \
             {} ledger breaches",
            r.chunks, r.clean, r.healed, r.quarantined, r.ledger_breaches
        );
    }
    let l = &s.ledger;
    // The drills char-compare this line between a resumed and an
    // uninterrupted run: energy and ledger, no paths.
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
    export_telemetry(a, &[])?;
    if s.ok() {
        Ok(())
    } else {
        Err(cli::CliError(
            "resume verify FAILED — restored state did not settle clean".to_string(),
        ))
    }
}

fn report(a: &Args) -> Result<(), cli::CliError> {
    let nodes: usize = a.get("--nodes").unwrap_or(10);
    let out = a.text("--out").unwrap_or("qcf-report.md");
    let json = a.text("--json");
    // `--diff <baseline>` = `--baseline <baseline> --check` plus the
    // ranked movement attribution.
    let diff = a.text("--diff");
    let baseline = diff.or(a.text("--baseline"));
    let check = diff.is_some() || a.switch("--check");
    // Wall-clock throughput on a 1-core (likely shared) host is noise; CR
    // and ledger invariants are checked regardless. The same core count
    // drives the speedup-gate decision in `check`.
    let strict = run_report::detected_cores() >= 4;
    let config = run_report::ReportConfig {
        nodes,
        seed: a.get("--seed").unwrap_or(21),
        compressor: a.text("--compressor").unwrap_or("QCF-ratio").to_string(),
        bound: a.bound(),
        chunk_qubits: a.get("--chunk").unwrap_or(nodes.saturating_sub(3)),
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
        println!("movement attribution vs baseline (hard-gated keys first, then largest):");
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
        Err(cli::CliError(format!(
            "{} regression(s) vs baseline",
            res.regressions.len()
        )))
    } else {
        if !check && !res.regressions.is_empty() {
            for r in &res.regressions {
                eprintln!("note (no --check): {r}");
            }
        }
        Ok(())
    }
}

/// The `spill log:` line `state` and `verify --state` print after a run
/// that compacted its spill log.
fn print_compactions(compactions: u64, reclaimed: u64) {
    if compactions > 0 {
        let s = if compactions == 1 { "" } else { "s" };
        println!("spill log: {compactions} compaction{s} reclaimed {reclaimed} dead bytes");
    }
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
        Err(cli::CliError(format!(
            "journal/ledger mismatch on chunk {}: journal requants {} vs ledger {}, \
             journal quarantines {} vs ledger {}",
            chain.id,
            chain.kind_counts[EventKind::WritebackRequant.index()],
            r.requants,
            chain.kind_counts[EventKind::Quarantine.index()],
            r.quarantines
        )))
    }
}
