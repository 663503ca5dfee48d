//! Contract tests for the whole compressor suite on *real* simulation
//! tensors: error bounds honoured, lossless codecs bit-exact, and the
//! framework's ratio dominance (claims C1/C2 at test scale).

use qcf::prelude::*;
use std::sync::OnceLock;
use tensornet::planes::as_interleaved;

/// Real intermediate tensors from a QAOA contraction — the *largest* ones,
/// which are what the system compresses (small tensors sit under the
/// compression threshold in practice, exactly as `CompressingHook`'s
/// `min_elems` models). Traced once per test binary and shared, since
/// every test reads the same tensors.
fn real_tensors() -> &'static [Vec<f64>] {
    static TENSORS: OnceLock<Vec<Vec<f64>>> = OnceLock::new();
    TENSORS.get_or_init(|| {
        let graph = Graph::random_regular(38, 3, 2);
        let params = QaoaParams::fixed_angles_3reg_p2();
        let mut trace = TraceHook::new(2048, 0);
        Simulator::default()
            .energy_with_hook(&graph, &params, &mut trace)
            .expect("trace run");
        let mut captured = trace.into_captured();
        captured.sort_by_key(|t| std::cmp::Reverse(t.len()));
        captured.truncate(8);
        let tensors: Vec<Vec<f64>> = captured
            .iter()
            .map(|t| as_interleaved(t.data()).to_vec())
            .collect();
        assert!(!tensors.is_empty(), "trace produced no tensors");
        tensors
    })
}

#[test]
fn every_compressor_honours_its_contract_on_real_tensors() {
    let tensors = real_tensors();
    let eb = 1e-4;
    let mut comps = all_compressors();
    comps.push(Box::new(QcfCompressor::ratio()));
    comps.push(Box::new(QcfCompressor::speed()));
    for comp in &comps {
        for t in tensors {
            let r = round_trip(comp.as_ref(), t, ErrorBound::Abs(eb)).expect("round trip");
            match comp.kind() {
                CompressorKind::Lossless => {
                    for (a, b) in t.iter().zip(&r.reconstructed) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{} claimed lossless but altered bits",
                            comp.name()
                        );
                    }
                }
                CompressorKind::ErrorBounded => {
                    assert!(
                        r.quality.max_abs_error <= eb * (1.0 + 1e-9),
                        "{} exceeded bound: {:.3e} > {eb:.3e}",
                        comp.name(),
                        r.quality.max_abs_error
                    );
                }
            }
        }
    }
}

#[test]
fn framework_ratio_mode_has_best_aggregate_ratio() {
    let tensors = real_tensors();
    let bound = ErrorBound::Abs(1e-4);
    let total: usize = tensors.iter().map(|t| t.len() * 8).sum();

    let aggregate = |comp: &dyn Compressor| -> f64 {
        let bytes: usize = tensors
            .iter()
            .map(|t| {
                round_trip(comp, t, bound)
                    .expect("round trip")
                    .compressed_bytes
            })
            .sum();
        total as f64 / bytes as f64
    };

    let qcf_ratio = aggregate(&QcfCompressor::ratio());
    for comp in all_compressors() {
        let cr = aggregate(comp.as_ref());
        assert!(
            qcf_ratio >= cr,
            "QCF-ratio ({qcf_ratio:.2}x) lost to {} ({cr:.2}x)",
            comp.name()
        );
    }
    // Claim C1 direction: a large multiple over plain cuSZ.
    let cusz = aggregate(by_name("cuSZ").unwrap().as_ref());
    assert!(
        qcf_ratio > 2.0 * cusz,
        "expected a clear win over plain cuSZ: {qcf_ratio:.2}x vs {cusz:.2}x"
    );
}

#[test]
fn speed_mode_beats_cuszx_ratio_at_comparable_time() {
    let tensors = real_tensors();
    let bound = ErrorBound::Abs(1e-4);
    let (mut qcf_bytes, mut szx_bytes) = (0usize, 0usize);
    let (mut qcf_time, mut szx_time) = (0.0f64, 0.0f64);
    let qcf = QcfCompressor::speed();
    let szx = by_name("cuSZx").unwrap();
    for t in tensors {
        let r1 = round_trip(&qcf, t, bound).unwrap();
        let r2 = round_trip(szx.as_ref(), t, bound).unwrap();
        qcf_bytes += r1.compressed_bytes;
        szx_bytes += r2.compressed_bytes;
        qcf_time += (t.len() * 8) as f64 / r1.gpu_compress_bps;
        szx_time += (t.len() * 8) as f64 / r2.gpu_compress_bps;
    }
    let ratio_gain = szx_bytes as f64 / qcf_bytes as f64;
    let slowdown = qcf_time / szx_time;
    assert!(
        ratio_gain > 1.3,
        "speed mode ratio gain only {ratio_gain:.2}x over cuSZx"
    );
    assert!(
        slowdown < 3.0,
        "speed mode {slowdown:.2}x slower than cuSZx"
    );
}

#[test]
fn cross_compressor_decode_dispatch() {
    // decompress_any must route any registry stream; framework streams are
    // decoded by their own type.
    let tensors = real_tensors();
    let t = &tensors[0];
    let stream = Stream::new(DeviceSpec::a100());
    for comp in all_compressors() {
        let bytes = comp.compress(t, ErrorBound::Abs(1e-3), &stream).unwrap();
        let rec = compressors::decompress_any(&bytes, &stream).unwrap();
        assert_eq!(rec.len(), t.len(), "{}", comp.name());
    }
}

#[test]
fn framework_streams_reject_cross_mode_decode() {
    let t = &real_tensors()[0];
    let stream = Stream::new(DeviceSpec::a100());
    let bytes = QcfCompressor::ratio()
        .compress(t, ErrorBound::Abs(1e-3), &stream)
        .unwrap();
    assert!(
        QcfCompressor::speed().decompress(&bytes, &stream).is_err(),
        "speed-mode decoder must reject a ratio-mode stream"
    );
}
