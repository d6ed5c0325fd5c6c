#!/usr/bin/env sh
# Local CI gate: build, test, format, lint — everything must pass clean.
# Usage: ./ci.sh
set -eu

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q (crate unit tests)"
cargo test --workspace --exclude charllm-ppt -q

# perfbench/Cargo.lock is committed: `--locked` fails on a new dependency
# edge between the path crates instead of rewriting the lock file.
echo "==> cargo test (perfbench, its own workspace)"
cargo test --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo fmt --check (perfbench, its own workspace)"
cargo fmt --manifest-path perfbench/Cargo.toml --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -- -D warnings (perfbench, its own workspace)"
cargo clippy --offline --locked --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> engine perf gate (512-GPU bench section vs committed baseline)"
out="$(CHARLLM_BENCH_SECTION=scale_512 cargo bench -p charllm-bench --bench sim_engine_hotpath)"
echo "$out" | grep "^scale_512 regression gate:"
echo "$out" | grep -q "^scale_512 regression gate: .*: OK" || {
    echo "FAIL: 512-GPU events/s regressed >15% below BENCH_sim_engine.json" >&2
    exit 1
}

echo "==> sweep cache smoke (microbatch_tuning example)"
out="$(cargo run --release --example microbatch_tuning)"
echo "$out" | grep "^sweep cache:"
echo "$out" | grep -Eq "^sweep cache: lowered [1-9][0-9]* hits .* plans [1-9][0-9]* hits" || {
    echo "FAIL: sweep cache reported zero hits" >&2
    exit 1
}

echo "==> fault engine smoke (faults_mtbf example)"
out="$(cargo run --release --example faults_mtbf)"
echo "$out" | grep -E "goodput [0-9]+(\.[0-9]+)? tokens/s" | head -3
echo "$out" | grep -Eq "goodput [0-9]+(\.[0-9]+)? tokens/s" || {
    echo "FAIL: faults_mtbf reported no finite goodput" >&2
    exit 1
}
echo "$out" | grep -Eq "cache after pass 2: lowered [1-9][0-9]* hits" || {
    echo "FAIL: repeated MTBF scenarios did not hit the cache" >&2
    exit 1
}
hashes="$(echo "$out" | sed -En 's/^ *result fnv1a ([0-9a-f]{16})$/\1/p' | tr '\n' ' ')"
echo "result hashes:" $hashes
pass="308f43caf8614741 88bf9dc4562a6fcd b9008a48a970d354 aa3440638fe4ec21 \
15b9076b2b62e88b c57f2e27267ddfb4 9b1e2b2fd5051efb 0379fa992b101bad"
[ "$hashes" = "$(echo $pass $pass) " ] || {
    echo "FAIL: an MTBF scenario's serialized SimResult changed" >&2
    exit 1
}

echo "==> thermal figure shapes (fig17, fig18, fig19 benches)"
for fig in fig17 fig18 fig19; do
    out="$(cargo bench -p charllm-bench --bench "$fig")" || {
        echo "FAIL: $fig no longer shows its thermal shape" >&2
        exit 1
    }
    echo "$out" | grep -E "^(worst rear-vs-front|mean intra-package)" || true
    echo "$out" | grep -q "^$fig shape: OK" || {
        echo "FAIL: $fig did not certify its shape" >&2
        exit 1
    }
done

echo "==> 16k-GPU folded sweep smoke (scale_16k example)"
out="$(cargo run --release --example scale_16k)"
echo "$out" | grep "^wall budget:"
echo "$out" | grep -q "within 10 s budget: OK" || {
    echo "FAIL: 16k-GPU folded sweep blew the wall-clock budget" >&2
    exit 1
}
echo "$out" | grep -Eq "^sweep cache: plans [1-9][0-9]* hits" || {
    echo "FAIL: power-cap sweep did not share the folded plan set" >&2
    exit 1
}
builds="$(echo "$out" | sed -En 's/^cap .* plans (hit|miss), ([0-9]+) built.*/\2/p')"
echo "plan builds per point:" $builds
[ "$(echo "$builds" | wc -l)" -eq 4 ] && [ "$(echo "$builds" | tail -n 3 | tr '\n' ' ')" = "0 0 0 " ] || {
    echo "FAIL: a power-cap point after the first built plans outside the shared set" >&2
    exit 1
}
hashes="$(echo "$out" | sed -En 's/^ *result fnv1a ([0-9a-f]{16})$/\1/p' | tr '\n' ' ')"
echo "result hashes:" $hashes
[ "$hashes" = "a8db931f1e32c075 c67e58ed9f749855 bbf8fc1bb585dbfc ada1f4b954077d34 " ] || {
    echo "FAIL: a 16k-GPU power-cap point's serialized SimResult changed" >&2
    exit 1
}

echo "==> metrics hub smoke (live_dashboard example, non-TTY JSONL + Prometheus)"
out="$(cargo run --release --example live_dashboard)"
echo "$out" | grep '"event":"point"' | head -1
echo "$out" | grep -Eq '^\{"event":"point","seq":0,"index":[0-9]+,"total":32,' || {
    echo "FAIL: live_dashboard streamed no well-formed JSONL progress event" >&2
    exit 1
}
echo "$out" | grep '"event":"sweep_end"' >/dev/null || {
    echo "FAIL: live_dashboard stream never emitted the sweep_end event" >&2
    exit 1
}
echo "$out" | grep -E "^sweep_points_completed_total [1-9][0-9]*$" || {
    echo "FAIL: final Prometheus snapshot missing sweep_points_completed_total" >&2
    exit 1
}

echo "==> persistent cache + sim server smoke (serve example, ephemeral port)"
out="$(cargo run --release --example serve)"
echo "$out" | grep "^server B pass 2:"
echo "$out" | grep -Eq "^server B pass 2: disk_hits=[1-9][0-9]* lowered_misses=0 plan_misses=0" || {
    echo "FAIL: server restart was not served from the disk cache tier" >&2
    exit 1
}
echo "$out" | grep -q "^persistent cache: OK" || {
    echo "FAIL: serve example did not certify the persistent cache" >&2
    exit 1
}
echo "$out" | grep -Eq "^perfetto trace for point 0: [1-9][0-9]* events" || {
    echo "FAIL: server trace download returned no events" >&2
    exit 1
}

echo "==> result diff smoke (result_diff example)"
dir="$(mktemp -d)"
printf '%s' '{"step_time_s":0.5,"restarts":1,"telemetry":{"power_w":[{"t":[0,0.05],"v":[300.5,301.25]}]}}' \
    >"$dir/parent.json"
sed 's/301.25/301.5/' "$dir/parent.json" >"$dir/change.json"
cargo run --release --quiet --example result_diff -- "$dir/parent.json" "$dir/parent.json" \
    | tail -n 1 | grep "^result: within tolerance$" || {
    echo "FAIL: result_diff did not pass two identical results" >&2
    exit 1
}
status=0
out="$(cargo run --release --quiet --example result_diff -- "$dir/change.json" "$dir/parent.json")" ||
    status=$?
rm -r "$dir"
echo "$out" | grep -F '| `telemetry.power_w[*].v[*]` |' | grep -F '| NO |' || {
    echo "FAIL: result_diff did not name the planted change" >&2
    exit 1
}
[ "$status" -eq 1 ] || {
    echo "FAIL: result_diff exited $status on a planted change, not 1" >&2
    exit 1
}

echo "==> perfbench output checks (all workloads, 1 s each, untraced)"
out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seconds 1 --trace 0)"
last="$(echo "$out" | tail -n 1)"
echo "$last" | grep -Eo '^\{"correct": [a-z]+, "attempted": [0-9]+, "failed": [0-9]+'
echo "$last" | grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,' || {
    echo "FAIL: perfbench reported incorrect results or failed ops" >&2
    exit 1
}

echo "==> cargo doc --workspace --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> CI green"
