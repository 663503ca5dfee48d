#!/usr/bin/env bash
# Tier-1 CI: build, lint, and test the whole workspace.
#
# The parallel executor sizes its pool from the host; QCF_WORKERS=4 forces
# the multi-threaded code paths even on small machines, so the second test
# pass exercises genuine block-parallel execution and the determinism
# guarantees (parallel == serial, bit for bit).
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --check

echo "== build (release) =="
cargo build --release --workspace

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== test (default workers) =="
cargo test -q --workspace

echo "== test (QCF_WORKERS=4) =="
QCF_WORKERS=4 cargo test -q --workspace

# The state engine's dense-reference contract under threaded block
# execution in release: lossless runs equal the dense StateVector bit for
# bit at every budget, prefetch, entry point and checkpoint knob, and
# lossy runs keep their ledger.
echo "== differential harness (QCF_WORKERS=4, release) =="
QCF_WORKERS=4 cargo test --release -q -p qtensor --test differential

# Steady-state apply loop must stay at zero heap allocations per gate
# (counting global allocator; release mode so dead allocs can't hide).
echo "== allocation regression (release) =="
cargo test --release -q -p qcf-bench --test alloc_regression
cargo test --release -q -p qcf-bench --test alloc_cuszx
cargo test --release -q -p qcf-bench --test alloc_cusz_table

# Warm codec round trips, a compressed tensor-network energy and a
# compressed-state stage run must start no thread: kernel bodies run on
# the executor's persistent pool, started once. QCF_WORKERS=4 gives the
# pool workers even on a small host.
echo "== thread-spawn regression (QCF_WORKERS=4, release) =="
QCF_WORKERS=4 cargo test --release -q -p qcf-bench --test spawn_regression

# The vectorized codec kernels must stay bit-identical to their scalar
# references with optimizations on, where the two sum trees are compiled
# independently.
echo "== kernel bit-identity proptests (release) =="
cargo test --release -q -p compressors --test kernel_proptests

# The LZ77 matcher behind LZ4, Snappy, GDeflate and QCF-ratio must return
# the plain reference matcher's token stream with optimizations on too:
# its word loads and early rejects compile differently there, and a
# release-only cuSZx kernel mismatch once passed every debug test.
echo "== LZ77 matcher reference proptests (release) =="
cargo test --release -q -p codec-kit --test lz77_reference

# The frame checksum (XXH32 over 16-byte stripes of 32-bit words) must
# keep its published vectors and catch every single-bit flip of v5 and v2
# frames with optimizations on too: its word loads compile differently
# there. The pinned frames show that no codec payload byte moved.
echo "== integrity checksum (release) =="
cargo test --release -q -p codec-kit --lib frame
cargo test --release -q -p qcf-bench --test lossless_frames

# The bitset elimination planner must return the adjacency-map reference
# planner's orders and widths with optimizations on too: every
# intermediate, frame and energy follows from the order.
echo "== ordering reference proptests (release) =="
cargo test --release -q -p qtensor --test ordering_reference

# Bucket elimination must hand its hook the plain fold's intermediates bit
# for bit (exact and through QCF-ratio), and the stack-planned broadcast
# kernels must equal their serial references, with optimizations on too:
# the merged-axis loops compile differently there.
echo "== bucket kernel reference (release) =="
cargo test --release -q -p qtensor --test bucket_reference
cargo test --release -q --test proptests

# One pass over every bench workload with assertions instead of timing:
# the vectorized codec kernels must stay bit-identical to their scalar
# references, and parallel streams identical to serial ones.
echo "== parallel bench smoke (kernel bit-identity) =="
cargo bench -q -p qcf-bench --bench parallel -- --smoke

# Chaos gate. First the decode fuzzers: no panic and no unbounded
# allocation on arbitrary/mutated/truncated bytes through every decoder —
# the nine baselines, then QCF-ratio and QCF-speed (sealed and bare
# streams, plus forged dictionary counts).
# Then a seeded fault storm through a full QAOA compressed-state run:
# `verify --state` exits nonzero unless the run completes (degraded is
# fine, dead is not), every injected storage corruption surfaces as a
# detected decode failure, the scrub settles clean, and no measured error
# breaches its ledger bound. The rates below reliably quarantine chunks,
# so the gate also proves nonzero-quarantine accounting end to end. A
# staged run writes each chunk back about once per stage, not once per
# gate, so the storm runs over 64 chunks (`--chunk 4`) to draw as many
# faults as a per-gate run over 8 chunks did.
echo "== chaos gate (decode fuzzers + seeded fault storm) =="
cargo test --release -q -p compressors --test fuzz_decoders
cargo test --release -q -p qcf-core --test fuzz_qcf
chaos_out=$(QCF_FAULTS="seed=42,state.chunk.bitflip%0.02,codec.decode%0.01" \
    cargo run --release -q -p qcf-bench --bin qcfz -- verify --state \
    --nodes 10 --seed 21 --compressor LZ4 --abs 0 --chunk 4)
echo "$chaos_out"
if echo "$chaos_out" | grep -q " 0 quarantines"; then
    echo "chaos gate FAILED: the storm must actually quarantine chunks" >&2
    exit 1
fi

# Out-of-core gate. A budgeted run must actually exceed its budget and
# spill (nonzero writes), the stage-fed readahead must cover at least
# half the fetches and miss none (hits and misses depend only on where
# reads are requested and taken, never on timing, so a feed regression
# fails here rather than passing at the hit-rate floor), and frame
# placement must be pure: the energy line of the budgeted run matches
# the unbudgeted one character for character. Then a
# QCF_MEM_BUDGET-armed `verify --state` proves the scrub walks the disk
# tier clean (exit code is the contract).
echo "== out-of-core gate (spill tier + prefetch) =="
oo_flags=(state --nodes 12 --seed 21 --compressor LZ4 --abs 0)
base_out=$(cargo run --release -q -p qcf-bench --bin qcfz -- "${oo_flags[@]}")
spill_out=$(cargo run --release -q -p qcf-bench --bin qcfz -- "${oo_flags[@]}" --mem-budget 4k)
echo "$spill_out" | sed -n '2,3p'
e_base=$(echo "$base_out" | sed -n '1s/.*energy \([^,]*\),.*/\1/p')
e_spill=$(echo "$spill_out" | sed -n '1s/.*energy \([^,]*\),.*/\1/p')
if [ -z "$e_base" ] || [ "$e_base" != "$e_spill" ]; then
    echo "out-of-core gate FAILED: energy '$e_spill' != in-RAM '$e_base'" >&2
    exit 1
fi
spill_writes=$(echo "$spill_out" | awk '/^spill:/ {print $2}')
if [ -z "$spill_writes" ] || [ "$spill_writes" -eq 0 ]; then
    echo "out-of-core gate FAILED: budgeted run never spilled" >&2
    exit 1
fi
hit_rate=$(echo "$spill_out" | sed -n '/^spill:/s/.*(\([0-9]*\)% hit rate.*/\1/p')
if [ -z "$hit_rate" ] || [ "$hit_rate" -lt 50 ]; then
    echo "out-of-core gate FAILED: prefetch hit rate ${hit_rate:-?}% below 50%" >&2
    exit 1
fi
misses=$(echo "$spill_out" | sed -n '/^spill:/s/.* \([0-9]*\) misses.*/\1/p')
if [ "$misses" != "0" ]; then
    echo "out-of-core gate FAILED: ${misses:-?} prefetch misses, expected 0" >&2
    exit 1
fi
oo_verify=$(QCF_MEM_BUDGET=4k cargo run --release -q -p qcf-bench --bin qcfz -- \
    verify --state --nodes 10 --seed 21 --compressor LZ4 --abs 0)
echo "$oo_verify" | grep "disk tier:"
if ! echo "$oo_verify" | grep -q "disk tier: [1-9]"; then
    echo "out-of-core gate FAILED: verify --state never touched the disk tier" >&2
    exit 1
fi

# Live-observability gate: one sampled run through `qcfz top --once`.
# The command arms the time-series sampler and the per-chunk journal,
# drives a real QAOA compressed-state workload, renders the dashboard,
# and exits nonzero unless its own Prometheus exposition of the final
# snapshot passes the hand-rolled format validator. The grep is belt and
# braces on top of the exit code.
echo "== live telemetry gate (qcfz top --once) =="
top_out=$(cargo run --release -q -p qcf-bench --bin qcfz -- top --once \
    --nodes 10 --seed 21 --interval 10)
echo "$top_out" | tail -n 3
if ! echo "$top_out" | grep -q "prometheus exposition valid"; then
    echo "telemetry gate FAILED: exposition did not validate" >&2
    exit 1
fi

# SLO gate. Clean drill: a fault-free sampled run must end with zero
# firing alerts (`qcfz slo` exits nonzero otherwise) and print the
# exact burn-rate accounting line — ticks/breaches/transitions
# reconciled against the replayed ring before anything renders. The
# budgeted 14-qubit run must last at least the 24-sample slow window, and
# every objective but the apply p99 must reach a verdict (a QAOA run
# makes fewer than the 100 stage applies a p99 window needs). Fault
# drill: simulated spill-device latency plus a seeded fault storm must
# actually ring the alarms — `--expect-firing` inverts the exit
# contract, demanding that the latency and fidelity objectives fired
# during the run (still firing, or fired and resolved when the fault
# stopped burning).
echo "== slo gate (clean drill + seeded fault drill) =="
slo_out=$(cargo run --release -q -p qcf-bench --bin qcfz -- slo \
    --nodes 14 --seed 21 --chunk-qubits 6 --rel 1e-4 --mem-budget 16k --interval 1)
echo "$slo_out" | grep -E "^(spec|slo)"
ticks=$(echo "$slo_out" | sed -n 's/^slo accounting: exact — \([0-9]*\) ticks,.*/\1/p')
if [ -z "$ticks" ]; then
    echo "slo gate FAILED: accounting line missing from clean drill" >&2
    exit 1
fi
if [ "$ticks" -lt 24 ]; then
    echo "slo gate FAILED: clean drill ran $ticks ticks, fewer than the 24-sample slow window" >&2
    exit 1
fi
held=$(echo "$slo_out" | grep -E "^[A-Za-z0-9._-]+ +(insufficient data|no signal) " |
    grep -v "^latency.apply_p99 " || true)
if [ -n "$held" ]; then
    echo "slo gate FAILED: clean drill left objectives without a verdict:" >&2
    echo "$held" >&2
    exit 1
fi
drill_out=$(QCF_SPILL_LATENCY_US=5000 \
    QCF_FAULTS="seed=42,state.chunk.bitflip%0.02,codec.decode%0.01" \
    cargo run --release -q -p qcf-bench --bin qcfz -- slo \
    --nodes 10 --seed 21 --compressor LZ4 --abs 0 \
    --mem-budget 64 --interval 2 \
    --expect-firing latency.stall,fidelity.quarantine)
echo "$drill_out" | grep -E "^(spec|slo)"
if ! echo "$drill_out" | grep -q "slo accounting: exact"; then
    echo "slo gate FAILED: accounting line missing from fault drill" >&2
    exit 1
fi

# Checkpoint crash drill. A snapshot commit must be all-or-nothing at
# every kill point of its temp → fsync → rename protocol: golden
# snapshots are taken at gates 8 and 16, then the gate-16 commit is
# killed at each of the five boundaries (the process must die with exit
# 3, the simulated-crash code). Resuming the survivor and finishing the
# run must reproduce the golden completion character for character —
# kill points 1-4 leave the old gate-8 snapshot, kill point 5 lands
# after the rename and commits gate 16. A torn write that "succeeds"
# must then be rejected by the footer checksum on resume with exit 1 (a
# panic exits 101 and fails the drill).
echo "== checkpoint crash drill (kill-point matrix + torn write) =="
ck_dir=$(mktemp -d /tmp/qcf-crash-drill.XXXXXX)
trap 'rm -rf "$ck_dir"' EXIT
qcfz=(cargo run --release -q -p qcf-bench --bin qcfz --)
ck_flags=(--nodes 10 --seed 21 --compressor LZ4 --abs 0)
"${qcfz[@]}" checkpoint --out "$ck_dir/g8.qcfs" --gates 8 "${ck_flags[@]}" >/dev/null
"${qcfz[@]}" checkpoint --out "$ck_dir/g16.qcfs" --from "$ck_dir/g8.qcfs" \
    --gates 16 >/dev/null
gold8=$("${qcfz[@]}" resume "$ck_dir/g8.qcfs" --verify | grep '^finished:')
gold16=$("${qcfz[@]}" resume "$ck_dir/g16.qcfs" --verify | grep '^finished:')
for n in 1 2 3 4 5; do
    cp "$ck_dir/g8.qcfs" "$ck_dir/d.qcfs"
    rc=0
    QCF_FAULTS="seed=3,ckpt.kill_point@$n" "${qcfz[@]}" checkpoint \
        --out "$ck_dir/d.qcfs" --from "$ck_dir/d.qcfs" --gates 16 \
        >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 3 ]; then
        echo "crash drill FAILED: kill point $n exited $rc, want 3" >&2
        exit 1
    fi
    got=$("${qcfz[@]}" resume "$ck_dir/d.qcfs" --verify | grep '^finished:')
    want=$gold8
    [ "$n" -eq 5 ] && want=$gold16
    if [ "$got" != "$want" ]; then
        echo "crash drill FAILED at kill point $n:" >&2
        echo "  resumed: $got" >&2
        echo "  golden:  $want" >&2
        exit 1
    fi
    echo "kill point $n: resumed clean ($([ "$n" -eq 5 ] && echo 'new snapshot committed' || echo 'old snapshot intact'))"
done
cp "$ck_dir/g8.qcfs" "$ck_dir/torn.qcfs"
QCF_FAULTS="seed=11,ckpt.torn_write@1" "${qcfz[@]}" checkpoint \
    --out "$ck_dir/torn.qcfs" --from "$ck_dir/torn.qcfs" --gates 16 >/dev/null
rc=0
"${qcfz[@]}" resume "$ck_dir/torn.qcfs" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "crash drill FAILED: torn snapshot resume exited $rc, want 1 (a refusal, not a panic)" >&2
    exit 1
fi
echo "torn write: rejected by footer checksum on resume (exit $rc)"

# Refusal drill. Every QCF_* variable and every qcfz flag goes through one
# parser per value type, and malformed input must exit 2 naming the
# variable or flag before any work, never run on a default in its place
# (a typo'd QCF_FAULTS would otherwise pass a chaos drill vacuously). A
# non-UTF-8 value is the one malformed QCF_FLIGHT_RECORD: any other word
# that is not a switch names a dump path. A misspelt variable name
# (QCF_WORKER) is refused like a malformed value, and so is an unknown
# experiment id, before any experiment runs or writes its JSON.
echo "== refusal drill (malformed QCF_* variables, flags and experiment ids exit 2) =="
refused() { # refused NAME CMD...: CMD must exit 2 and name NAME on stderr
    local name=$1 rc=0 err
    shift
    err=$("$@" 2>&1 >/dev/null) || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -qF -- "$name" <<<"$err"; then
        echo "refusal drill FAILED: $name exited $rc, want 2 naming it: $err" >&2
        exit 1
    fi
}
for bad in QCF_TELEMETRY=maybe QCF_TELEMETRY_SAMPLE=0 QCF_JOURNAL=banana \
    QCF_FLIGHT_RECORD=$'\xff' "QCF_FAULTS=state.chunk.bitflip%banana" \
    "QCF_SLO=no rules here" QCF_WORKERS=banana QCF_MEM_BUDGET=1.5k \
    QCF_SPILL_LATENCY_US=5k QCF_LEDGER_MEASURE=measure QCF_WORKER=4; do
    refused "${bad%%=*}" env "$bad" "${qcfz[@]}" state --nodes 6
done
for flags in "--nodes banana" "--nodes" "--nodse 8" "--mem-budget 1.5k" "--rel x"; do
    read -ra f <<<"$flags"
    refused "${f[0]}" "${qcfz[@]}" state "${f[@]}"
done
mkdir "$ck_dir/results"
refused e99 cargo run --release -q -p qcf-bench --bin experiments -- \
    e10 e99 --quick --out "$ck_dir/results"
if [ -n "$(ls -A "$ck_dir/results")" ]; then
    echo "refusal drill FAILED: experiments wrote results before refusing e99" >&2
    exit 1
fi
echo "malformed variables, flags and experiment ids: refused up front (exit 2, each named)"
# QCF_MEM_BUDGET has one size parser: 2MB is 2 MiB for the state and for
# the SLO capacity envelope (1.5x the budget).
cap=$(QCF_MEM_BUDGET=2MB "${qcfz[@]}" slo --print | grep '^capacity.resident:')
if [ "$cap" != "capacity.resident: state.resident_bytes <= 3145728" ]; then
    echo "refusal drill FAILED: QCF_MEM_BUDGET=2MB gave '$cap'" >&2
    exit 1
fi
echo "QCF_MEM_BUDGET=2MB: $cap"

# Spill-log compaction drill: a churned, budgeted run must compact its
# append-only spill log (reclaiming dead superseded records) while the
# scrub still walks the swapped file fully clean. 64 chunks (`--chunk 4`)
# keep the churn of a staged run above a per-gate run over 8 chunks.
echo "== spill compaction drill (verify --state on a churned log) =="
comp_out=$("${qcfz[@]}" verify --state --nodes 10 --seed 21 \
    --compressor LZ4 --abs 0 --mem-budget 4k --chunk 4)
echo "$comp_out" | grep -E "spill log:|verify:"
if ! echo "$comp_out" | grep -Eq "spill log: [1-9][0-9]* compaction"; then
    echo "compaction drill FAILED: churned spill log never compacted" >&2
    exit 1
fi
if ! echo "$comp_out" | grep -q "verify: OK"; then
    echo "compaction drill FAILED: scrub not clean after compaction" >&2
    exit 1
fi

# Run-to-run regression gate with attribution: `--diff` is `--baseline
# --check` plus the ranked movement attribution (which keys moved most
# and which SLO dimension each endangers). CR, ledger invariants and
# energy are hard failures everywhere; throughput only fails on >=4-core
# hosts (wall clock on a loaded 1-core runner is noise). Any end-of-run
# SLO violation in the current report is an absolute failure — a
# violating committed baseline cannot grandfather it. Refresh with:
#   qcfz report --json BENCH_report.json
echo "== report regression check (with SLO verdict + diff attribution) =="
cargo run --release -q -p qcf-bench --bin qcfz -- report \
    --out /tmp/qcf-ci-report.md --diff BENCH_report.json

echo "CI OK"
