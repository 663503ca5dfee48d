//! Serial vs parallel hot paths, plus the vectorized codec kernels
//! against their scalar references.
//!
//! The parallel entry points degrade to the serial walk when
//! `worker_count() == 1`, so on a single-core host the two sides should be
//! within noise of each other; set `QCF_WORKERS=<n>` to force the threaded
//! paths. The `speedup/*` group pins the worker pool to 1 with
//! `with_serial_workers` for its serial side, so its parallel/serial ratio
//! is the honest multi-core speedup: ~1x on a 1-core host by construction,
//! and the >=2x cuSZ/cuSZx acceptance target only applies on >=4-core
//! hosts (`qcfz report --check` enforces the same rule). Results feed
//! `BENCH_parallel.json` at the repo root.
//!
//! `--smoke` (CI) skips the timing windows and runs every workload once,
//! asserting the vectorized kernels agree with their scalar references.

use codec_kit::bitio::{BitReader, BitWriter};
use codec_kit::huffman::histogram;
use codec_kit::{HuffmanDecoder, HuffmanEncoder};
use compressors::cusz::{dual_quant_into, dual_quant_scalar};
use compressors::cuszx::{decode_block, decode_block_scalar, encode_block, encode_block_scalar};
use compressors::{Compressor, ErrorBound};
use criterion::{black_box, Criterion, Throughput};
use gpu_model::exec::{with_serial_workers, worker_count};
use gpu_model::{DeviceSpec, Stream};
use qcf_core::{dict, QcfCompressor};
use rand::{Rng, SeedableRng};
use tensornet::{multiply_keep, multiply_keep_serial, Complex64, Tensor};

fn random_tensor(labels: &[u32], dims: &[usize], seed: u64) -> Tensor {
    let total: usize = dims.iter().product();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let data: Vec<Complex64> = (0..total)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    Tensor::new(labels.to_vec(), dims.to_vec(), data).unwrap()
}

/// Amplitude-like f64 payload shared by the kernel workloads.
fn amplitudes(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if rng.gen::<f64>() < 0.6 {
                rng.gen_range(-1e-7..1e-7)
            } else {
                (i as f64 * 0.3).sin() * 0.5
            }
        })
        .collect()
}

/// Symbol stream the Huffman stage actually sees: dual-quant codes of an
/// amplitude payload (heavily skewed toward the zero-delta symbol, which
/// is what the multi-symbol prefix LUT is built for), plus its canonical
/// codec. On near-uniform symbols the LUT degrades toward one symbol per
/// probe and the one-at-a-time walk is as fast or faster — that is the
/// expected trade and the smoke mode still checks bit-identity on it.
fn huffman_workload(n: usize) -> (Vec<u32>, Vec<u8>, HuffmanDecoder) {
    let data = amplitudes(n, 7);
    let mut symbols = vec![0u32; n];
    dual_quant_into(&data, 2e-4, 512, &mut symbols);
    let enc = HuffmanEncoder::from_freqs(&histogram(&symbols, 1024));
    let mut w = BitWriter::with_capacity(n / 2);
    enc.encode_all(&mut w, &symbols);
    let dec = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();
    (symbols, w.finish(), dec)
}

fn bench_multiply_keep(c: &mut Criterion) {
    // Union output 32·16·16·32 = 262144 elements.
    let a = random_tensor(&[0, 1, 2], &[32, 16, 16], 43);
    let b = random_tensor(&[2, 3], &[16, 32], 44);
    let mut group = c.benchmark_group("parallel/multiply_keep");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(262_144));
    group.bench_function("serial", |bch| {
        bch.iter(|| multiply_keep_serial(black_box(&a), black_box(&b)).unwrap())
    });
    group.bench_function("parallel", |bch| {
        bch.iter(|| multiply_keep(black_box(&a), black_box(&b)).unwrap())
    });
    group.finish();
}

fn bench_qcf_compress(c: &mut Criterion) {
    let n = 1usize << 18;
    let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin() * 0.4).collect();
    let mut group = c.benchmark_group("parallel/qcf_compress");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Bytes((n * 8) as u64));
    for (name, comp) in [
        ("ratio", QcfCompressor::ratio()),
        ("speed", QcfCompressor::speed()),
    ] {
        group.bench_function(name, |bch| {
            let stream = Stream::new(DeviceSpec::a100());
            bch.iter(|| {
                comp.compress(black_box(&data), ErrorBound::Abs(1e-4), &stream)
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// Width-8 kernels vs their scalar bit-identity references.
fn bench_kernels(c: &mut Criterion) {
    let n = 1usize << 16;
    let data = amplitudes(n, 9);
    let twoeb = 2e-4;

    let mut group = c.benchmark_group("kernels/dual_quant");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Bytes((n * 8) as u64));
    group.bench_function("scalar", |bch| {
        bch.iter(|| dual_quant_scalar(black_box(&data), twoeb, 512))
    });
    let mut syms = vec![0u32; n];
    group.bench_function("vector", |bch| {
        bch.iter(|| dual_quant_into(black_box(&data), twoeb, 512, &mut syms))
    });
    group.finish();

    let mut group = c.benchmark_group("kernels/szx_encode");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Bytes((n * 8) as u64));
    let eb = twoeb / 2.0;
    group.bench_function("scalar", |bch| {
        bch.iter(|| {
            let mut w = BitWriter::with_capacity(n);
            for block in data.chunks(128) {
                encode_block_scalar(black_box(block), eb, twoeb, &mut w);
            }
            w.finish()
        })
    });
    let mut scratch = vec![0u64; 128];
    group.bench_function("vector", |bch| {
        bch.iter(|| {
            let mut w = BitWriter::with_capacity(n);
            for block in data.chunks(128) {
                encode_block(black_box(block), eb, twoeb, &mut scratch, &mut w);
            }
            w.finish()
        })
    });
    group.finish();

    let (symbols, stream_bytes, dec) = huffman_workload(n);
    let mut group = c.benchmark_group("kernels/huffman_decode");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("symbol", |bch| {
        let mut out = vec![0u32; n];
        bch.iter(|| {
            let mut r = BitReader::new(black_box(&stream_bytes));
            for slot in out.iter_mut() {
                *slot = dec.decode_symbol(&mut r).unwrap();
            }
            out[n - 1]
        })
    });
    group.bench_function("lut", |bch| {
        let mut out = vec![0u32; n];
        bch.iter(|| {
            let mut r = BitReader::new(black_box(&stream_bytes));
            dec.decode_into(&mut r, &mut out).unwrap();
            out[n - 1]
        })
    });
    group.finish();
    let _ = symbols;
}

/// Honest multi-core speedup: the same compress with the worker pool
/// pinned to 1 vs the host's pool. The two streams are bit-identical
/// (the block decomposition is worker-count independent), so this times
/// scheduling alone.
fn bench_compress_speedup(c: &mut Criterion) {
    let n = 1usize << 18;
    let data = amplitudes(n, 11);
    let stream = Stream::new(DeviceSpec::a100());
    for (name, comp) in [
        (
            "cusz",
            Box::new(compressors::cusz::CuSz::default()) as Box<dyn Compressor>,
        ),
        ("cuszx", Box::new(compressors::cuszx::CuSzx::default())),
    ] {
        let mut group = c.benchmark_group(format!("speedup/{name}"));
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(300));
        group.measurement_time(std::time::Duration::from_secs(2));
        group.throughput(Throughput::Bytes((n * 8) as u64));
        group.bench_function("serial_1w", |bch| {
            bch.iter(|| {
                with_serial_workers(|| {
                    comp.compress(black_box(&data), ErrorBound::Abs(1e-4), &stream)
                        .unwrap()
                })
            })
        });
        group.bench_function("parallel", |bch| {
            bch.iter(|| {
                comp.compress(black_box(&data), ErrorBound::Abs(1e-4), &stream)
                    .unwrap()
            })
        });
        group.finish();
    }
}

/// Prints the host context and, after the `speedup/*` group ran, the
/// per-core + multi-core record lines for `BENCH_parallel.json`.
fn report_speedups(c: &Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let bps = |id: &str| {
        c.results
            .iter()
            .find(|r| r.id == id)
            .map(|r| match r.throughput {
                Some(Throughput::Bytes(b)) => b as f64 / r.median.as_secs_f64(),
                _ => 0.0,
            })
    };
    for name in ["cusz", "cuszx"] {
        let (Some(serial), Some(par)) = (
            bps(&format!("speedup/{name}/serial_1w")),
            bps(&format!("speedup/{name}/parallel")),
        ) else {
            continue;
        };
        let speedup = par / serial.max(f64::MIN_POSITIVE);
        println!(
            "speedup/{name}: per-core {:.3} GB/s, multi-core {:.3} GB/s, ~{speedup:.1}x \
             ({cores}-core host, {} workers){}",
            serial / 1e9,
            par / 1e9,
            worker_count(),
            if cores < 4 {
                " — >=2x gate applies on >=4-core hosts only"
            } else {
                ""
            }
        );
    }
}

/// One pass over every workload with assertions instead of timing — the
/// CI smoke gate (`cargo bench --bench parallel -- --smoke`).
fn smoke() {
    let n = 1usize << 12;
    let data = amplitudes(n, 9);
    let twoeb = 2e-4;

    let (ref_syms, ref_outliers) = dual_quant_scalar(&data, twoeb, 512);
    let mut syms = vec![0u32; n];
    let outliers = dual_quant_into(&data, twoeb, 512, &mut syms);
    assert_eq!(syms, ref_syms, "dual_quant vector != scalar");
    assert_eq!(outliers, ref_outliers, "dual_quant outliers diverged");

    let eb = twoeb / 2.0;
    let mut wr = BitWriter::with_capacity(n);
    let mut wv = BitWriter::with_capacity(n);
    let mut scratch = vec![0u64; 128];
    for block in data.chunks(128) {
        encode_block_scalar(block, eb, twoeb, &mut wr);
        encode_block(block, eb, twoeb, &mut scratch, &mut wv);
    }
    let (sref, svec) = (wr.finish(), wv.finish());
    assert_eq!(svec, sref, "szx_encode vector != scalar");
    let mut r = BitReader::new(&sref);
    let mut rv = BitReader::new(&svec);
    let (mut dref, mut dvec) = (Vec::new(), Vec::new());
    for block in data.chunks(128) {
        decode_block_scalar(&mut r, block.len(), twoeb, &mut dref).unwrap();
        decode_block(&mut rv, block.len(), twoeb, &mut dvec).unwrap();
    }
    assert_eq!(
        dvec.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        dref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "szx_decode vector != scalar"
    );

    let (symbols, stream_bytes, dec) = huffman_workload(n);
    let mut out = vec![0u32; n];
    let mut r = BitReader::new(&stream_bytes);
    dec.decode_into(&mut r, &mut out).unwrap();
    assert_eq!(out, symbols, "huffman LUT decode diverged");

    // Dictionary kernels: the amplitude payload at three bounds, planes on
    // which the stride, hot/cold and plain speed layouts win, and dense
    // noise that overflows the table.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
    let sym = |k: u32| k as f64 * 0.01;
    let stride: Vec<f64> = (0..n).map(|i| sym((i % 16 * 7 % 13) as u32)).collect();
    let skewed: Vec<f64> = (0..n)
        .map(|_| {
            sym(if rng.gen::<f64>() < 0.9 {
                rng.gen_range(0..8)
            } else {
                rng.gen_range(8..300)
            })
        })
        .collect();
    let uniform: Vec<f64> = (0..n).map(|_| sym(rng.gen_range(0..32))).collect();
    let noise: Vec<f64> = (0..2 * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let dict_planes = [
        (&data[..], 1e-6),
        (&data[..], 1e-4),
        (&data[..], 1e-2),
        (&stride[..], 1e-3),
        (&skewed[..], 1e-3),
        (&uniform[..], 1e-3),
        (&noise[..], 1e-7),
    ];
    for (plane, eb) in dict_planes {
        let reference = dict::quantize_scalar(plane, eb);
        assert!(
            dict::quantize(plane, eb) == reference,
            "dict quantize != scalar (eb {eb})"
        );
        if let Some(q) = reference {
            let (mut fast, mut scalar) = (Vec::new(), Vec::new());
            dict::encode_speed(&q, eb, &mut fast);
            dict::encode_speed_scalar(&q, eb, &mut scalar);
            assert_eq!(fast, scalar, "dict encode_speed != scalar (eb {eb})");
        }
    }

    let stream = Stream::new(DeviceSpec::a100());
    for comp in [
        Box::new(compressors::cusz::CuSz::default()) as Box<dyn Compressor>,
        Box::new(compressors::cuszx::CuSzx::default()),
    ] {
        let par = comp
            .compress(&data, ErrorBound::Abs(1e-4), &stream)
            .unwrap();
        let ser = with_serial_workers(|| {
            comp.compress(&data, ErrorBound::Abs(1e-4), &stream)
                .unwrap()
        });
        assert_eq!(
            par,
            ser,
            "{}: parallel stream != serial stream",
            comp.name()
        );
    }

    let a = random_tensor(&[0, 1, 2], &[8, 8, 8], 41);
    let b = random_tensor(&[2, 3], &[8, 8], 42);
    assert_eq!(
        multiply_keep(&a, &b).unwrap().data(),
        multiply_keep_serial(&a, &b).unwrap().data()
    );

    println!(
        "parallel bench smoke OK (worker_count={}, kernels bit-identical to scalar references)",
        worker_count()
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    eprintln!("parallel bench context: worker_count={}", worker_count());
    let mut criterion = Criterion::default();
    bench_multiply_keep(&mut criterion);
    bench_qcf_compress(&mut criterion);
    bench_kernels(&mut criterion);
    bench_compress_speedup(&mut criterion);
    report_speedups(&criterion);
}
