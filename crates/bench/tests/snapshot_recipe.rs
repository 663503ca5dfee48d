//! A snapshot's app metadata (the `qcfz` run recipe) is untrusted input.
//! A checksum-valid snapshot whose recipe disagrees with the state stored
//! next to it must make `qcfz resume` and `qcfz checkpoint --from` return
//! an error, never panic.

use compressors::ErrorBound;
use qcf_bench::cli::{self, CkptMeta, StateRunCfg};
use qtensor::CompressedState;
use std::path::{Path, PathBuf};

/// Commits a `|0…0⟩` state of `n` qubits in `2^chunk_qubits`-amplitude
/// chunks under LZ4, with `meta` as its recipe.
fn forge(dir: &Path, name: &str, n: usize, chunk_qubits: usize, meta: &CkptMeta) -> PathBuf {
    let path = dir.join(name);
    let comp = cli::cli_by_name("LZ4").unwrap();
    let cs = CompressedState::zero(n, chunk_qubits, comp.as_ref(), ErrorBound::Abs(0.0)).unwrap();
    cs.checkpoint(&path, &meta.encode()).unwrap();
    path
}

#[test]
fn resume_refuses_a_recipe_that_disagrees_with_its_state() {
    let dir = std::env::temp_dir().join(format!("qcf-recipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let recipe = |nodes, chunk_qubits| CkptMeta {
        nodes,
        seed: 21,
        chunk_qubits,
        gates_applied: 0,
        compressor: "LZ4".into(),
    };
    // (name, state qubits, state chunk qubits, recipe)
    let cases = [
        ("more-nodes", 10, 4, recipe(12, 4)),
        ("fewer-nodes", 10, 4, recipe(8, 4)),
        ("chunk-size", 10, 4, recipe(10, 5)),
        ("odd-nodes", 5, 2, recipe(5, 2)),
        ("too-few-nodes", 2, 1, recipe(2, 1)),
    ];
    for (name, n, chunk_qubits, meta) in &cases {
        let snap = forge(&dir, name, *n, *chunk_qubits, meta);
        let resumed = cli::resume_demo(&snap, false, false, None);
        assert!(resumed.is_err(), "{name}: resume accepted the recipe");
        let out = dir.join(format!("{name}-out.qcfs"));
        let cfg = StateRunCfg::new(*n, 21, *chunk_qubits, "LZ4");
        let continued = cli::checkpoint_demo(&cfg, &out, Some(&snap), None);
        assert!(continued.is_err(), "{name}: checkpoint --from accepted");
        assert!(!out.exists(), "{name}: a refused run committed a snapshot");
    }
    // The matching recipe still resumes and finishes.
    let snap = forge(&dir, "matching", 10, 4, &recipe(10, 4));
    let done = cli::resume_demo(&snap, false, false, None).unwrap();
    assert_eq!(done.meta.nodes, 10);
    let _ = std::fs::remove_dir_all(&dir);
}
