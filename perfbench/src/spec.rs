//! The benchmark's workloads and metrics: one table that the runs, the
//! printed results and `BENCHMARK.json` (`--describe`) all read.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "tn-energy",
        why: "p=2 QAOA energies with QCF-ratio on every intermediate: the paper's workflow, split between contraction and ratio-mode codec, no state or disk",
    },
    Workload {
        name: "sv-gates",
        why: "compressed state vector with QCF-speed: every gate decodes and re-encodes every chunk, no contraction, no disk",
    },
    Workload {
        name: "sv-oocore",
        why: "sv-gates plus a 1/8 RAM budget, prefetch, 100 us spill reads and a checkpoint/resume: tier changes show here, flat on sv-gates",
    },
    Workload {
        name: "codec-corpus",
        why: "round trips of all 11 codecs on traced and synthetic tensors: the paper's C1/C2 comparison, no simulator",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

const fn e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// Reported by every workload with `--trace 0`; never zero.
pub const END_TO_END: &[Metric] = &[
    e("run_s", "s", "lower", 0.25),
    e("setup_s", "s", "lower", 0.25),
    e("cr", "ratio", "higher", 0.15),
];

/// The lineup of `qcf_bench::cli::cli_lineup()`, in its order.
pub const CODECS: &[&str] = &[
    "cuSZ",
    "cuSZx",
    "cuZFP",
    "LZ4",
    "Snappy",
    "GDeflate",
    "Cascaded",
    "Bitcomp",
    "memcpy",
    "QCF-ratio",
    "QCF-speed",
];

/// Reported by every workload with `--trace 1` (zero where a layer does no
/// work on that workload). Times are self times per pass unless named
/// otherwise.
pub const PER_LAYER: &[Metric] = &[
    m("qtensor.contraction.self_s", "s", "lower"),
    m("qtensor.contraction.intermediates", "count", "lower"),
    m("qtensor.contraction.eliminations", "count", "lower"),
    m("qtensor.contraction.intermediate_bytes", "bytes", "lower"),
    m("qtensor.contraction.peak_live_bytes", "bytes", "lower"),
    m("qtensor.hook.self_s", "s", "lower"),
    m("compressors.encode_s", "s", "lower"),
    m("compressors.decode_s", "s", "lower"),
    m("compressors.bg_decode_s", "s", "lower"),
    m("compressors.encodes", "count", "lower"),
    m("compressors.decodes", "count", "lower"),
    m("compressors.bytes_in", "bytes", "lower"),
    m("compressors.bytes_out", "bytes", "lower"),
    m("compressors.encode_mbps", "MB/s", "higher"),
    m("compressors.decode_mbps", "MB/s", "higher"),
    m("c1_cr_gain", "ratio", "higher"),
    m("c2_cr_gain", "ratio", "higher"),
    m("c2_speed_ratio", "ratio", "higher"),
    m("codec.frame_s", "s", "lower"),
    m("codec.frame_mbps", "MB/s", "higher"),
    m("qtensor.state.init_s", "s", "lower"),
    m("qtensor.state.apply_self_s", "s", "lower"),
    m("qtensor.state.scan_s", "s", "lower"),
    m("qtensor.state.decodes_per_gate", "count", "lower"),
    m("qtensor.state.encodes_per_gate", "count", "lower"),
    m("qtensor.state.cache_hit_ratio", "ratio", "higher"),
    m("qtensor.state.writebacks", "count", "lower"),
    m("peak_resident_bytes", "bytes", "lower"),
    m("qtensor.spill.writes", "count", "lower"),
    m("qtensor.spill.fetches", "count", "lower"),
    m("qtensor.spill.file_bytes", "bytes", "lower"),
    m("qtensor.spill.prefetch_hit_ratio", "ratio", "higher"),
    m("qtensor.spill.stall_s", "s", "lower"),
    m("qtensor.checkpoint.commit_s", "s", "lower"),
    m("qtensor.checkpoint.bytes", "bytes", "lower"),
    m("qtensor.checkpoint.resume_s", "s", "lower"),
    m("circuit.build_s", "s", "lower"),
    m("energy_rel_err", "ratio", "lower"),
    m("failed_frac", "ratio", "lower"),
    m("run.tail_s", "s", "lower"),
    m("run.cpu_s", "s", "lower"),
    m("run.device_wait_s", "s", "lower"),
    m("run.wall_s", "s", "lower"),
    m("run.tail_wall_s", "s", "lower"),
    m("trace.wall_s", "s", "lower"),
    m("unattributed_frac", "ratio", "lower"),
    m("trace_overhead_frac", "ratio", "lower"),
    m("run.samples", "count", "higher"),
    m("host.cores", "count", "higher"),
    m("host.workers", "count", "higher"),
    m("host.calibration_s", "s", "lower"),
];

/// Per-codec metric names, in `PER_LAYER`'s units: `(name, unit, better)`.
fn codec_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for codec in CODECS {
        out.push((format!("compressors.{codec}.cr"), "ratio", "higher"));
        out.push((format!("compressors.{codec}.encode_mbps"), "MB/s", "higher"));
        out.push((format!("compressors.{codec}.decode_mbps"), "MB/s", "higher"));
    }
    out
}

/// Every per-layer metric as `(name, unit, better)`.
pub fn all_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit, m.better))
        .chain(codec_metrics())
        .collect()
}

/// `BENCHMARK.json`.
pub fn describe(run_seconds: u32) -> String {
    let q = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = all_layer_metrics()
        .iter()
        .map(|(n, u, b)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(n),
                q(u),
                q(b)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
