//! The byte-LZ codecs, Cascaded and QCF-ratio write pinned frames: the
//! FNV-1a digests of each frame and of its unsealed payload over a fixed
//! corpus (one synthetic ensemble per near-zero fraction, one traced
//! intermediate and an integer staircase) must not move. A faster matcher,
//! decoder or packer has to write the same bytes; a deliberate format
//! change updates the table and says why.
//!
//! The payload column was computed under v2 frames and did not move with
//! v5: a change of the seal alone moves only the frame column. (A QCF
//! stream whose planes take the backend route nests that backend's sealed
//! frame in its payload; none of these does.)

use codec_kit::frame::{fnv1a32, unseal};
use compressors::ErrorBound;
use gpu_model::{DeviceSpec, Stream};
use qcf_bench::cli::cli_by_name;
use qcf_bench::corpus::{synthetic_tensor, trace_instance, CorpusTensor};

const CODECS: [&str; 5] = ["LZ4", "Snappy", "GDeflate", "Cascaded", "QCF-ratio"];

/// `(codec, tensor, frame bytes, fnv1a32 of the frame, fnv1a32 of the
/// payload)`: a change here is a change of the codecs' formats.
#[rustfmt::skip]
const PINNED: &[(&str, &str, usize, u32, u32)] = &[
    ("LZ4", "ensemble-n16384-z00", 17149, 0x3bac4983, 0xf1a88125),
    ("Snappy", "ensemble-n16384-z00", 25726, 0x2c28548b, 0x0ed6bd75),
    ("GDeflate", "ensemble-n16384-z00", 17720, 0x2cd9cd26, 0x981eec0a),
    ("Cascaded", "ensemble-n16384-z00", 262159, 0x766e3dc4, 0x38bb7407),
    ("QCF-ratio", "ensemble-n16384-z00", 7657, 0xf19b92d2, 0xa16b6c42),
    ("LZ4", "ensemble-n16384-z50", 32583, 0xee42c88e, 0x597b9b22),
    ("Snappy", "ensemble-n16384-z50", 34043, 0x86b0f0d2, 0x781d684e),
    ("GDeflate", "ensemble-n16384-z50", 25881, 0xfa918188, 0x43525bbc),
    ("Cascaded", "ensemble-n16384-z50", 262159, 0xb3188d0a, 0xcedb60cc),
    ("QCF-ratio", "ensemble-n16384-z50", 6319, 0x8a7a8bf3, 0x741a95bb),
    ("LZ4", "ensemble-n16384-z80", 43097, 0xfa758a15, 0xc5c8b0ca),
    ("Snappy", "ensemble-n16384-z80", 39829, 0xfa396076, 0x87e6f958),
    ("GDeflate", "ensemble-n16384-z80", 29796, 0xc063b1c9, 0x5abb75df),
    ("Cascaded", "ensemble-n16384-z80", 262159, 0xf6da2f2b, 0x06eee240),
    ("QCF-ratio", "ensemble-n16384-z80", 5243, 0x9edda492, 0xacf914f2),
    ("LZ4", "qaoa-n16-s7-t0", 20823, 0x2e57c8fa, 0x4f0ff86e),
    ("Snappy", "qaoa-n16-s7-t0", 20744, 0x39a2794b, 0xfe9674bb),
    ("GDeflate", "qaoa-n16-s7-t0", 18955, 0xabe4b72a, 0xff209c8c),
    ("Cascaded", "qaoa-n16-s7-t0", 65550, 0x203633ad, 0xd1cb554e),
    ("QCF-ratio", "qaoa-n16-s7-t0", 3641, 0x758a8c1a, 0xc692709a),
    ("LZ4", "staircase", 1197, 0x565c7cfb, 0xd12ceb0a),
    ("Snappy", "staircase", 3635, 0xf9163569, 0xc89f40a6),
    ("GDeflate", "staircase", 453, 0x14aa9d27, 0x8b615ad7),
    ("Cascaded", "staircase", 634, 0xad1dc940, 0xdff473b0),
    ("QCF-ratio", "staircase", 978, 0xebcf1012, 0x68ebaa3b),
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
            let payload = unseal(&frame).unwrap();
            got.push((
                name,
                t.origin.clone(),
                frame.len(),
                fnv1a32(&frame),
                fnv1a32(payload),
            ));
        }
    }
    let table: String = got
        .iter()
        .map(|(c, o, len, h, p)| format!("    ({c:?}, {o:?}, {len}, {h:#010x}, {p:#010x}),\n"))
        .collect();
    let pinned: Vec<_> = PINNED
        .iter()
        .map(|&(c, o, len, h, p)| (c, o.to_string(), len, h, p))
        .collect();
    assert_eq!(got, pinned, "frames moved; this run wrote:\n{table}");
}
