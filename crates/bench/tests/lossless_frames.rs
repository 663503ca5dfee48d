//! The byte-LZ codecs, Cascaded and QCF-ratio write pinned frames: the
//! FNV-1a digest of each frame over a fixed corpus (one synthetic ensemble
//! per near-zero fraction, one traced intermediate and an integer
//! staircase) must not move. A faster matcher, decoder or packer has to
//! write the same bytes; a deliberate format change updates the table and
//! says why.

use codec_kit::frame::fnv1a32;
use compressors::ErrorBound;
use gpu_model::{DeviceSpec, Stream};
use qcf_bench::cli::cli_by_name;
use qcf_bench::corpus::{synthetic_tensor, trace_instance, CorpusTensor};

const CODECS: [&str; 5] = ["LZ4", "Snappy", "GDeflate", "Cascaded", "QCF-ratio"];

/// `(codec, tensor, frame bytes, fnv1a32 of the frame)`: a change here is
/// a change of the codecs' formats.
const PINNED: &[(&str, &str, usize, u32)] = &[
    ("LZ4", "ensemble-n16384-z00", 17149, 0x40cf29b5),
    ("Snappy", "ensemble-n16384-z00", 25726, 0xb11f42a0),
    ("GDeflate", "ensemble-n16384-z00", 17720, 0x776641bf),
    ("Cascaded", "ensemble-n16384-z00", 262159, 0x9f2b148f),
    ("QCF-ratio", "ensemble-n16384-z00", 7657, 0xfa243790),
    ("LZ4", "ensemble-n16384-z50", 32583, 0xb66b0613),
    ("Snappy", "ensemble-n16384-z50", 34043, 0x7c6404c3),
    ("GDeflate", "ensemble-n16384-z50", 25881, 0xff9f65be),
    ("Cascaded", "ensemble-n16384-z50", 262159, 0x09c67c55),
    ("QCF-ratio", "ensemble-n16384-z50", 6319, 0x88d0883a),
    ("LZ4", "ensemble-n16384-z80", 43097, 0xed36c3d0),
    ("Snappy", "ensemble-n16384-z80", 39829, 0x22cab56f),
    ("GDeflate", "ensemble-n16384-z80", 29796, 0x696197ac),
    ("Cascaded", "ensemble-n16384-z80", 262159, 0x0d9a1e52),
    ("QCF-ratio", "ensemble-n16384-z80", 5243, 0x71776be2),
    ("LZ4", "qaoa-n16-s7-t0", 20823, 0x65b29e2a),
    ("Snappy", "qaoa-n16-s7-t0", 20744, 0x9cae187d),
    ("GDeflate", "qaoa-n16-s7-t0", 18955, 0x60948e94),
    ("Cascaded", "qaoa-n16-s7-t0", 65550, 0x7493568b),
    ("QCF-ratio", "qaoa-n16-s7-t0", 3641, 0x380fa513),
    ("LZ4", "staircase", 1197, 0x68c4eb51),
    ("Snappy", "staircase", 3635, 0x678f1a1b),
    ("GDeflate", "staircase", 453, 0x06658a22),
    ("Cascaded", "staircase", 634, 0x80ad2137),
    ("QCF-ratio", "staircase", 978, 0xfce15ea4),
];

/// 16,384 complex elements (256 KiB) per ensemble, so the 64 KiB LZ
/// windows slide several times, the largest intermediate of a small
/// traced contraction, and a staircase of small integers: the tensors
/// leave Cascaded on its raw fallback, the staircase makes it pack.
fn corpus() -> Vec<CorpusTensor> {
    let mut corpus: Vec<CorpusTensor> = [0.0, 0.5, 0.8]
        .iter()
        .zip(40u64..)
        .map(|(&zero, seed)| synthetic_tensor(1 << 14, zero, seed))
        .collect();
    corpus.extend(trace_instance(16, 7, 2048, 1));
    corpus.push(CorpusTensor {
        data: (0..8192).map(|i| (i / 64) as f64).collect(),
        origin: "staircase".into(),
        real: false,
    });
    corpus
}

#[test]
fn lossless_frames_are_byte_stable() {
    let stream = Stream::new(DeviceSpec::a100());
    let mut got = Vec::new();
    for t in corpus() {
        for name in CODECS {
            let codec = cli_by_name(name).unwrap();
            let frame = codec
                .compress(&t.data, ErrorBound::Rel(1e-3), &stream)
                .unwrap();
            let back = codec.decompress(&frame, &stream).unwrap();
            assert_eq!(back.len(), t.data.len(), "{name} on {}", t.origin);
            got.push((name, t.origin.clone(), frame.len(), fnv1a32(&frame)));
        }
    }
    let table: String = got
        .iter()
        .map(|(c, o, len, h)| format!("    ({c:?}, {o:?}, {len}, {h:#010x}),\n"))
        .collect();
    let pinned: Vec<_> = PINNED
        .iter()
        .map(|&(c, o, len, h)| (c, o.to_string(), len, h))
        .collect();
    assert_eq!(got, pinned, "frames moved; this run wrote:\n{table}");
}
