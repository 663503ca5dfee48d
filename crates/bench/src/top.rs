//! `qcfz top` — an in-terminal dashboard over the live telemetry layer.
//!
//! A QAOA compressed-state run executes on a worker thread while the main
//! thread renders frames from the background time-series sampler
//! ([`qcf_telemetry::timeseries`]): stage throughput, resident bytes,
//! error-budget burn-down and the p50/p95/p99 of the `state.apply_us` /
//! `state.encode_us` / `state.decode_us` latency histograms.
//!
//! Two modes:
//!
//! * **live** (default): clears the screen and redraws every sampler
//!   interval until the worker finishes — a tiny `top(1)` for the engine;
//! * **`--once`**: runs the workload to completion, then renders exactly
//!   one frame with no ANSI escapes — CI- and pipe-safe.
//!
//! Either way the final registry snapshot is serialized through the
//! Prometheus text exposition and re-validated with the hand-rolled parser
//! ([`qcf_telemetry::export::validate_prometheus`]), so `qcfz top --once`
//! doubles as an end-to-end gate on the export surface.
//!
//! Every frame also renders an alerts pane: the active SLO spec (`QCF_SLO`
//! or the defaults) replayed over the ring the frame draws
//! ([`qcf_telemetry::slo::evaluate_ring`], at most
//! [`qcf_telemetry::timeseries::CAPACITY`] samples). Live mode handles
//! SIGINT / SIGHUP / SIGPIPE: the sampler is stopped cleanly and one final
//! **ANSI-free** summary frame is printed, so an interrupted session (or a
//! closed terminal) ends with a readable record instead of a half-drawn
//! escape soup.

use crate::cli::{cli_by_name, CliError};
use compressors::ErrorBound;
use qcf_telemetry::metrics::{quantile_from_buckets, HistogramSnapshot, Snapshot};
use qcf_telemetry::slo::{self, AlertSnapshot, AlertState, SloSpec};
use qcf_telemetry::timeseries::{self, Sample};
use qcf_telemetry::{journal, prometheus_text};
use qcircuit::{qaoa_circuit, Graph, QaoaParams};
use qtensor::CompressedState;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

/// Configuration for one `qcfz top` invocation.
#[derive(Debug, Clone)]
pub struct TopConfig {
    /// QAOA graph nodes (= qubits) for the workload run.
    pub nodes: usize,
    /// Graph seed.
    pub seed: u64,
    /// Compressor display name (`qcfz list`).
    pub compressor: String,
    /// Error bound for the chunk codec.
    pub bound: ErrorBound,
    /// Qubits per chunk.
    pub chunk_qubits: usize,
    /// Compressed-resident byte budget; `Some` arms the disk spill tier
    /// and the schedule-aware prefetcher for the workload run.
    pub mem_budget: Option<usize>,
    /// Sampler and redraw interval in milliseconds.
    pub interval_ms: u64,
    /// Render a single frame after the run instead of refreshing live.
    pub once: bool,
}

impl TopConfig {
    /// Defaults matching `qcfz state`: 10-node QAOA, QCF-speed.
    pub fn new(nodes: usize, seed: u64, compressor: &str, bound: ErrorBound) -> Self {
        TopConfig {
            nodes,
            seed,
            compressor: compressor.to_string(),
            bound,
            chunk_qubits: nodes.saturating_sub(3),
            mem_budget: None,
            interval_ms: 50,
            once: false,
        }
    }
}

/// Set by the signal handler (and by [`request_stop`]); the live loop
/// polls it every frame.
static STOP: AtomicBool = AtomicBool::new(false);

/// Asks a running live dashboard to wind down exactly as SIGINT would:
/// stop the sampler, print one final ANSI-free summary frame. Public so
/// tests (and embedders) can drive the shutdown path without a signal.
pub fn request_stop() {
    STOP.store(true, Ordering::SeqCst);
}

/// The handler body: one async-signal-safe atomic store. Rendering and
/// sampler shutdown happen on the main thread when the loop notices.
extern "C" fn on_signal(_sig: i32) {
    STOP.store(true, Ordering::SeqCst);
}

/// Routes SIGINT (ctrl-C), SIGHUP (terminal closed) and SIGPIPE (pager
/// went away) to [`on_signal`]. Catching SIGPIPE also turns writes to a
/// dead pipe into `EPIPE` errors — which is why every print below is a
/// guarded [`emit`], not a panicking `print!`.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(2, handler); // SIGINT
        signal(1, handler); // SIGHUP
        signal(13, handler); // SIGPIPE
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Best-effort stdout write: after SIGPIPE the descriptor is dead and
/// every write fails — the dashboard must still shut the sampler down
/// instead of panicking mid-frame.
fn emit(s: &str) {
    let mut out = std::io::stdout();
    let _ = out.write_all(s.as_bytes());
    let _ = out.flush();
}

/// Runs the dashboard: workload on a worker thread, frames on this one.
/// Returns the final rendered frame (also printed) so tests and callers
/// can inspect it.
pub fn run(cfg: &TopConfig) -> Result<String, CliError> {
    // The dashboard *is* a telemetry consumer: force the substrate on and
    // arm the journal so per-chunk counts are live, then start the sampler
    // at the requested cadence (programmatic, so no env var needed).
    qcf_telemetry::set_enabled(true);
    journal::set_enabled(true);
    let spec = SloSpec::active();
    install_signal_handlers();
    timeseries::stop();
    timeseries::start(cfg.interval_ms.max(1));

    let w = cfg.clone();
    let worker = std::thread::Builder::new()
        .name("qcfz-top-worker".into())
        .spawn(move || -> Result<f64, String> {
            let comp = cli_by_name(&w.compressor)
                .ok_or_else(|| format!("unknown compressor '{}'", w.compressor))?;
            let graph = Graph::random_regular(w.nodes, 3, w.seed);
            let circuit = qaoa_circuit(&graph, &QaoaParams::fixed_angles_3reg_p1());
            let err = |e: qtensor::ContractError| format!("compressed state: {e}");
            let mut cs =
                CompressedState::zero(w.nodes, w.chunk_qubits.min(w.nodes), comp.as_ref(), w.bound)
                    .map_err(err)?;
            if w.mem_budget.is_some() {
                cs.set_mem_budget(w.mem_budget);
            }
            cs.run_scheduled(circuit.gates(), true).map_err(err)?;
            cs.maxcut_energy(&graph).map_err(err)
        })
        .map_err(|e| CliError(format!("worker spawn failed: {e}")))?;

    let interval = std::time::Duration::from_millis(cfg.interval_ms.max(1));
    if !cfg.once {
        while !worker.is_finished() && !STOP.load(Ordering::SeqCst) {
            std::thread::sleep(interval);
            let frame = draw(&qcf_telemetry::registry().snapshot(), &spec, cfg, None);
            // Home + clear-to-end keeps the redraw flicker-free.
            emit(&format!("\x1b[H\x1b[J{frame}"));
        }
    }

    // Interrupted (signal or request_stop): stop the sampler first so no
    // frame races the summary, give the worker a short grace window, then
    // print one final escape-free frame over whatever the run recorded.
    // The worker thread is detached if still busy — the process is exiting
    // and a blocked disk fetch must not hold the terminal hostage.
    if STOP.swap(false, Ordering::SeqCst) && !worker.is_finished() {
        timeseries::stop();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(500);
        while !worker.is_finished() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let energy = if worker.is_finished() {
            worker.join().ok().and_then(Result::ok)
        } else {
            None
        };
        let frame = draw(&qcf_telemetry::registry().snapshot(), &spec, cfg, energy);
        emit(&format!(
            "\ninterrupted — final summary (partial run):\n{frame}"
        ));
        journal::set_enabled(false);
        return Ok(frame);
    }
    let energy = worker
        .join()
        .map_err(|_| CliError("worker panicked".into()))?
        .map_err(CliError)?;

    // Guarantee at least one sample even when the run finished inside the
    // first sampler interval, then freeze the series for the final frame.
    timeseries::capture();
    timeseries::stop();

    let snap = qcf_telemetry::registry().snapshot();
    let frame = draw(&snap, &spec, cfg, Some(energy));
    if cfg.once {
        emit(&frame);
    } else {
        emit(&format!("\x1b[H\x1b[J{frame}"));
    }

    // Exit contract: the exposition this run would serve must parse.
    let prom = prometheus_text(&snap);
    let stats = qcf_telemetry::export::validate_prometheus(&prom)
        .map_err(|e| CliError(format!("prometheus exposition invalid: {e}")))?;
    emit(&format!(
        "prometheus exposition valid: {} samples, {} histograms\n",
        stats.samples, stats.histograms
    ));
    journal::set_enabled(false);
    Ok(frame)
}

/// A seven-level unicode sparkline over `values` (empty input → empty
/// string; non-finite values render as the lowest bar).
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(0.0, f64::max);
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() || max <= 0.0 {
                BARS[0]
            } else {
                BARS[((v / max * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// `12.3 KiB`-style byte formatting.
fn fmt_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

/// Formats a microsecond quantile from the sketch: `-` when the histogram
/// is empty, `>10ms`-style when the rank fell in the overflow bucket
/// (`overflow_bound` is the histogram's last *finite* bucket bound; see
/// [`last_finite_bound`]).
pub(crate) fn fmt_us(v: f64, overflow_bound: f64) -> String {
    if v.is_nan() {
        "-".into()
    } else if v.is_infinite() {
        if overflow_bound.is_finite() {
            format!(">{}", fmt_us(overflow_bound, f64::NAN))
        } else {
            ">∞".into()
        }
    } else if v >= 1000.0 {
        format!("{:.1}ms", v / 1000.0)
    } else {
        format!("{v:.0}µs")
    }
}

/// The histogram's last finite bucket bound — snapshot bucket lists end
/// with the implicit `(+inf, overflow)` bucket, so `.last()` is NOT it.
pub(crate) fn last_finite_bound(buckets: &[(f64, u64)]) -> f64 {
    buckets
        .iter()
        .rev()
        .map(|&(b, _)| b)
        .find(|b| b.is_finite())
        .unwrap_or(f64::INFINITY)
}

/// One `p50 / p95 / p99` latency row, or `None` when the histogram has no
/// observations yet.
fn latency_row(label: &str, h: &HistogramSnapshot) -> Option<String> {
    if h.count == 0 {
        return None;
    }
    let top = last_finite_bound(&h.buckets);
    let q = |q: f64| fmt_us(quantile_from_buckets(&h.buckets, h.count, q), top);
    Some(format!(
        "  {label:<10} {:>8} {:>8} {:>8}  ({} obs)",
        q(0.50),
        q(0.95),
        q(0.99),
        h.count
    ))
}

/// Per-sample stage-apply rates (stages/s) from the series, for the
/// throughput sparkline. The count rides in each sample's `state.apply_us`
/// histogram count, which takes one sample per stage of gates.
fn apply_rates(samples: &[Sample]) -> Vec<f64> {
    samples
        .windows(2)
        .map(|w| {
            let c0 = w[0]
                .metrics
                .histograms
                .get("state.apply_us")
                .map_or(0, |h| h.count);
            let c1 = w[1]
                .metrics
                .histograms
                .get("state.apply_us")
                .map_or(0, |h| h.count);
            let dt = (w[1].t_us.saturating_sub(w[0].t_us)) as f64 / 1e6;
            if dt > 0.0 {
                (c1.saturating_sub(c0)) as f64 / dt
            } else {
                0.0
            }
        })
        .collect()
}

/// Accumulated-bound level per sample, for the budget burn-down sparkline.
fn budget_levels(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| {
            s.metrics
                .float_gauges
                .get("state.ledger.accumulated_bound")
                .copied()
                .unwrap_or(0.0)
        })
        .collect()
}

/// One alerts-pane line per non-ok alert (the quiet majority collapses to
/// a count, so a healthy dashboard spends one row on the whole pane).
fn alerts_pane(alerts: &[AlertSnapshot]) -> String {
    if alerts.is_empty() {
        return String::new();
    }
    let ok = alerts.iter().filter(|a| a.state == AlertState::Ok).count();
    let mut out = format!(
        "alerts    {} objectives: {} ok / {} pending / {} firing / {} resolved\n",
        alerts.len(),
        ok,
        alerts
            .iter()
            .filter(|a| a.state == AlertState::Pending)
            .count(),
        alerts
            .iter()
            .filter(|a| a.state == AlertState::Firing)
            .count(),
        alerts
            .iter()
            .filter(|a| a.state == AlertState::Resolved)
            .count(),
    );
    for a in alerts.iter().filter(|a| a.state != AlertState::Ok) {
        let marker = if a.state == AlertState::Firing {
            '!'
        } else {
            '~'
        };
        out.push_str(&format!(
            "  {marker} {:<22} {:<9} {} {} {:.3e} (fast {:.3e} / slow {:.3e})\n",
            a.objective.name,
            a.state.label(),
            a.objective.expr.to_text(),
            a.objective.op.label(),
            a.objective.threshold,
            a.fast,
            a.slow
        ));
    }
    out
}

/// One frame over the current sampler ring, its alerts replayed from it.
fn draw(snap: &Snapshot, spec: &SloSpec, cfg: &TopConfig, energy: Option<f64>) -> String {
    let samples = timeseries::samples();
    let alerts = slo::evaluate_ring(spec, &samples).alerts;
    render(snap, &samples, &alerts, cfg, energy)
}

/// Renders one dashboard frame (pure: registry snapshot + sample ring +
/// alert snapshots in, text out — unit-testable without running anything).
pub fn render(
    snap: &Snapshot,
    samples: &[Sample],
    alerts: &[AlertSnapshot],
    cfg: &TopConfig,
    energy: Option<f64>,
) -> String {
    let mut out = String::with_capacity(1024);
    let applies = snap.histograms.get("state.apply_us").map_or(0, |h| h.count);
    let (resident, peak) = snap
        .gauges
        .get("state.resident_bytes")
        .copied()
        .unwrap_or((0, 0));
    let requants = snap
        .counters
        .get("state.ledger.requants")
        .copied()
        .unwrap_or(0);
    let acc_bound = snap
        .float_gauges
        .get("state.ledger.accumulated_bound")
        .copied()
        .unwrap_or(0.0);

    let runtime_s = samples.last().map(|s| s.t_us as f64 / 1e6).unwrap_or(0.0);
    out.push_str(&format!(
        "qcfz top — {} on {}-node QAOA (seed {}, chunk 2^{})   [{:.2}s, {} samples @{}ms{}]\n",
        cfg.compressor,
        cfg.nodes,
        cfg.seed,
        cfg.chunk_qubits,
        runtime_s,
        samples.len(),
        cfg.interval_ms,
        match energy {
            Some(_) => ", done",
            None => ", running",
        }
    ));

    let rates = apply_rates(samples);
    let mean_rate = if rates.is_empty() {
        0.0
    } else {
        rates.iter().sum::<f64>() / rates.len() as f64
    };
    out.push_str(&format!(
        "stages    {applies} applied   throughput {} {:.0} stages/s avg\n",
        sparkline(&rates),
        mean_rate
    ));
    out.push_str(&format!(
        "resident  {} now / {} peak compressed\n",
        fmt_bytes(resident as f64),
        fmt_bytes(peak as f64)
    ));
    out.push_str(&format!(
        "budget    {requants} requants, accumulated bound {acc_bound:.3e}  burn-down {}\n",
        sparkline(&budget_levels(samples))
    ));

    // Disk tier + prefetch pipeline — rendered only once frames actually
    // spilled, so the row never clutters an all-RAM run.
    let spill_writes = snap
        .counters
        .get("state.spill.writes")
        .copied()
        .unwrap_or(0);
    if spill_writes > 0 {
        let spill_reads = snap.counters.get("state.spill.reads").copied().unwrap_or(0);
        let (on_disk, _) = snap
            .gauges
            .get("state.spill.live_bytes")
            .copied()
            .unwrap_or((0, 0));
        let p_hits = snap
            .counters
            .get("state.prefetch.hits")
            .copied()
            .unwrap_or(0);
        let p_misses = snap
            .counters
            .get("state.prefetch.misses")
            .copied()
            .unwrap_or(0);
        let stall_us = snap
            .counters
            .get("state.prefetch.stall_us")
            .copied()
            .unwrap_or(0);
        let fetched = p_hits + p_misses;
        out.push_str(&format!(
            "spill     {spill_writes} writes / {spill_reads} reads, {} on disk   \
             prefetch {:.0}% hit ({p_hits}/{fetched}), stalled {}\n",
            fmt_bytes(on_disk as f64),
            if fetched == 0 {
                0.0
            } else {
                100.0 * p_hits as f64 / fetched as f64
            },
            fmt_us(stall_us as f64, f64::INFINITY)
        ));
    }

    out.push_str("latency        p50      p95      p99\n");
    for (label, name) in [
        ("apply", "state.apply_us"),
        ("encode", "state.encode_us"),
        ("decode", "state.decode_us"),
    ] {
        if let Some(row) = snap
            .histograms
            .get(name)
            .and_then(|h| latency_row(label, h))
        {
            out.push_str(&row);
            out.push('\n');
        }
    }

    out.push_str(&alerts_pane(alerts));

    let chunk_ids = journal::chunk_ids();
    if !chunk_ids.is_empty() {
        out.push_str(&format!(
            "journal   {} chunks, {} events (ring keeps last {} per chunk)\n",
            chunk_ids.len(),
            journal::total_events(),
            journal::RING
        ));
    }
    if let Some(e) = energy {
        out.push_str(&format!("energy    {e:.6}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcf_telemetry::metrics::HistogramSnapshot;

    fn synthetic_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("state.ledger.requants".into(), 7);
        snap.gauges
            .insert("state.resident_bytes".into(), (2048, 4096));
        snap.float_gauges
            .insert("state.ledger.accumulated_bound".into(), 3.0e-6);
        snap.histograms.insert(
            "state.apply_us".into(),
            HistogramSnapshot {
                count: 100,
                dropped: 0,
                sum: 5000.0,
                mean: 50.0,
                buckets: vec![(10.0, 10), (100.0, 80), (1000.0, 10)],
            },
        );
        snap
    }

    #[test]
    fn render_is_pure_and_complete() {
        let cfg = TopConfig::new(10, 21, "QCF-speed", ErrorBound::Rel(1e-3));
        let frame = render(&synthetic_snapshot(), &[], &[], &cfg, Some(-7.25));
        assert!(frame.contains("2.0 KiB now / 4.0 KiB peak"), "{frame}");
        assert!(frame.contains("7 requants"), "{frame}");
        assert!(frame.contains("100 applied"), "{frame}");
        assert!(frame.contains("energy    -7.250000"), "{frame}");
        // p50 at rank 50 lands in the (10,100] bucket → 100µs upper bound;
        // p99 at rank 99 lands in (100,1000] → 1ms.
        assert!(frame.contains("100µs"), "{frame}");
        assert!(frame.contains("1.0ms"), "{frame}");
        // No ANSI escapes in the frame itself (the caller adds them).
        assert!(!frame.contains('\x1b'), "frame must be escape-free");
        // No disk-tier activity in the snapshot — no spill row.
        assert!(!frame.contains("spill"), "{frame}");
    }

    #[test]
    fn render_shows_spill_row_when_frames_spilled() {
        let mut snap = synthetic_snapshot();
        snap.counters.insert("state.spill.writes".into(), 40);
        snap.counters.insert("state.spill.reads".into(), 32);
        snap.gauges
            .insert("state.spill.live_bytes".into(), (8192, 8192));
        snap.counters.insert("state.prefetch.hits".into(), 30);
        snap.counters.insert("state.prefetch.misses".into(), 10);
        snap.counters.insert("state.prefetch.stall_us".into(), 1500);
        let cfg = TopConfig::new(10, 21, "QCF-speed", ErrorBound::Rel(1e-3));
        let frame = render(&snap, &[], &[], &cfg, Some(-7.25));
        assert!(frame.contains("40 writes / 32 reads"), "{frame}");
        assert!(frame.contains("8.0 KiB on disk"), "{frame}");
        assert!(frame.contains("75% hit (30/40)"), "{frame}");
        assert!(frame.contains("stalled 1.5ms"), "{frame}");
    }

    #[test]
    fn alerts_pane_collapses_healthy_and_flags_firing() {
        use qcf_telemetry::slo::{Expr, Objective, Op};
        let obj = |name: &str| Objective {
            name: name.into(),
            expr: Expr::Level("state.resident_bytes".into()),
            op: Op::Le,
            threshold: 1024.0,
        };
        let snap = |name: &str, state: AlertState| AlertSnapshot {
            objective: obj(name),
            state,
            fast: 2048.0,
            slow: 1500.0,
            breach_ticks: 3,
            judged_ticks: 5,
            transitions: 1,
        };
        // No alerts, no pane at all.
        let cfg = TopConfig::new(10, 21, "QCF-speed", ErrorBound::Rel(1e-3));
        let frame = render(&synthetic_snapshot(), &[], &[], &cfg, None);
        assert!(!frame.contains("alerts"), "{frame}");

        let alerts = vec![
            snap("capacity.resident", AlertState::Firing),
            snap("fidelity.bound", AlertState::Ok),
            snap("latency.stall", AlertState::Pending),
        ];
        let frame = render(&synthetic_snapshot(), &[], &alerts, &cfg, None);
        assert!(
            frame.contains("3 objectives: 1 ok / 1 pending / 1 firing / 0 resolved"),
            "{frame}"
        );
        assert!(frame.contains("! capacity.resident"), "{frame}");
        assert!(frame.contains("~ latency.stall"), "{frame}");
        // Healthy objectives stay out of the per-alert rows.
        assert!(!frame.contains("fidelity.bound"), "{frame}");
        assert!(!frame.contains('\x1b'), "frame must be escape-free");
    }

    #[test]
    fn request_stop_ends_live_mode_with_an_ansi_free_summary() {
        // The stop flag is polled before the first redraw, so a pre-set
        // flag exercises exactly the signal path: sampler stopped, worker
        // joined within the grace window (a tiny instance finishes fast),
        // one escape-free summary frame returned.
        let _guard = crate::telemetry_test_lock();
        let mut cfg = TopConfig::new(8, 5, "QCF-speed", ErrorBound::Rel(1e-3));
        cfg.chunk_qubits = 4;
        cfg.interval_ms = 1;
        request_stop();
        let frame = run(&cfg).expect("interrupted run still reports");
        assert!(
            !frame.contains('\x1b'),
            "summary must be ANSI-free: {frame}"
        );
        assert!(frame.contains("qcfz top"), "{frame}");
        assert!(
            !STOP.load(Ordering::SeqCst),
            "stop flag must be consumed for the next run"
        );
    }

    #[test]
    fn sparkline_scales_and_handles_empties() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[1.0, 4.0, 8.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[f64::NAN, 1.0]).chars().next(), Some('▁'));
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(2048.0), "2.0 KiB");
        assert_eq!(fmt_bytes(3.0 * 1024.0 * 1024.0), "3.0 MiB");
        assert_eq!(fmt_us(f64::NAN, 1000.0), "-");
        assert_eq!(fmt_us(f64::INFINITY, 10000.0), ">10.0ms");
        assert_eq!(fmt_us(250.0, 1000.0), "250µs");
        assert_eq!(fmt_us(2500.0, 10000.0), "2.5ms");
    }
}
