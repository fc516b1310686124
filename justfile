# Developer entry points. `just --list` to see them all.

# Build everything in release mode.
build:
    cargo build --release --workspace

# The full test suite.
test:
    cargo test --workspace -q

# Lints as CI runs them: clippy, then rustdoc with warnings denied (a
# dangling intra-doc link is one).
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The chaos/resilience suite: fault injection, retry healing, rollback
# recovery (deterministic seeds — failures reproduce exactly); then the CRC
# corpus and the frame bit-flip test at the optimisation level and CPU-feature
# dispatch the code ships with.
chaos:
    cargo test -q -p swlb-sim --release --test chaos_recovery
    cargo test -q --release -p swlb-obs -p swlb-comm

# Observability guarantees: zero-alloc disabled path, JSONL schema,
# counters that agree with the live solver and with the recovery report.
obs:
    cargo test -q -p swlb-obs
    cargo test -q -p swlb-sim --release --test obs_integration

# The serving acceptance suite (docs/SERVING.md): clippy-clean serve crate,
# the loopback integration tests (the wide-job wedge regression and the
# `swlb run` / served-job artifact parity among them), the heavier --ignored
# soak, and the front door as a user types it (exit 0, one JSON summary line).
serve-check:
    cargo clippy -p swlb-serve --all-targets -- -D warnings
    cargo test -q -p swlb-serve
    cargo test -q -p swlb-serve --release --test serve_integration
    cargo test -q -p swlb-serve --release --test serve_integration -- --ignored
    out=$(cargo run --release -p swlb-serve --bin swlb -- run --case cylinder --lattice d3q19 --nx 48 --ny 24 --nz 3 --steps 40 --output ppm --quiet) && echo "$out" && test "$(printf '%s\n' "$out" | wc -l)" -eq 1 && printf '%s' "$out" | python3 -c "import json, sys; assert json.load(sys.stdin)['summary']"

# Crash-safety acceptance (docs/SERVING.md, "Durability & crash recovery"):
# SIGKILL the real server binary mid-workload, restart on the same state
# dir, and prove exactly-once job accounting — plus corrupt-journal replay,
# corrupt-checkpoint fallback and the chaos-injected failure domains. The
# second line is the heavier multi-cycle kill soak.
crash-check:
    cargo test -q -p swlb-serve --release --test serve_crash
    cargo test -q -p swlb-serve --release --test serve_crash -- --ignored

# The cross-layer equivalence suites, once each: dispatch (incl. the depth-k
# matrix), AA↔AB / lane policies, N-rank ↔ serial, the checkpoint + reshard
# roundtrips (every one through the checkpoint codec's write and its one
# reader), and the engine's own matrix.
equivalence:
    cargo test -q -p swlb-sim --release --test unified_dispatch --test simd_equivalence --test checkpoint_roundtrip --test distributed_equivalence
    cargo test -q -p swlb-sim --release --lib engine

# The benchmark's own gate (benchmark/README.md): fmt, clippy, self-tests,
# the smoke suite and schema validation of every result line. The suite opens
# out/../../BENCHMARK.json, so the gitignored out/ must exist first.
bench-check:
    mkdir -p benchmark/out
    benchmark/check.sh

# The repo's one benchmark: the seven workloads, five end-to-end metrics and
# per-layer ladder declared in BENCHMARK.json (see benchmark/README.md).
bench:
    mkdir -p benchmark/out
    cargo run --release --offline --manifest-path benchmark/Cargo.toml

# The SIMD correctness contract, both ways: native dispatch (tolerance-based
# under AVX2+FMA) and SWLB_NO_SIMD=1 (portable lane, bit-exact everywhere).
simd-check:
    cargo test -q -p swlb-sim --release --test simd_equivalence --test unified_dispatch
    cargo test -q -p swlb-core --release
    SWLB_NO_SIMD=1 cargo test -q -p swlb-sim --release --test simd_equivalence --test unified_dispatch
    SWLB_NO_SIMD=1 cargo test -q -p swlb-core --release

# Re-sharding a checkpoint across rank counts, beyond the checkpoint-on-N /
# resume-on-M matrix in `just equivalence`: rollback across a reshard, a
# refused restore failing on every rank instead of hanging the peers, chunks
# packed in place matching a per-cell canonical reference (AB and AA at both
# parities, 1- and 2-deep rings), a rank layout that cannot tile the domain
# refused with a typed error on every rank, and
# the malformed-input corpora of swlb-io — the chunked checkpoint (index and
# manifest cut at every field boundary, bit flips with and without a resealed
# CRC, hostile counts, aliased / missing / duplicate / short member chunks,
# chunks that do not tile the domain),
# the retired whole-domain layouts the one reader upgrades, and the journal
# records — where every truncated or hostile input must fail typed or be
# skipped and counted, never panic.
reshard-check:
    cargo test -q -p swlb-sim --release --lib resilience
    cargo test -q -p swlb-sim --release --lib refused_restore_fails_on_every_rank
    cargo test -q -p swlb-sim --release --lib capture_matches_a_per_cell_canonical_reference
    cargo test -q -p swlb-sim --release --lib untileable_layout_is_a_typed_error_on_every_rank
    cargo test -q -p swlb-io

# Temporal-blocking acceptance (docs/PERFORMANCE.md, "Temporal blocking")
# beyond `just equivalence`: the depth-k conservation proptest.
tb-check:
    cargo test -q -p swlb-core --release --test properties temporal_blocking

# Regenerate every paper figure/table harness.
figures:
    for bin in fig08_kernel_speedup roofline_table fig13_weak_taihulight \
               fig14_strong_taihulight fig15_weak_newsunway fig16_strong_newsunway \
               fig11_gpu_opt fig17_gpu_strong fusion_dma_table ablation_blocking \
               ablation_schedule related_work_table; do \
        cargo run --release -p swlb-bench --bin $bin; done

# The fleet acceptance suite (docs/SERVING.md, "Fleet"): clippy-clean fleet
# crate, the unit + integration tests (quota enforcement, aging starvation
# regression, bit-exact cross-width migration), the kill -9 pair (worker
# death resumed on a survivor, controller death replayed exactly-once), and
# a scaled 1000-job churn soak. The 100k soak stays behind --ignored.
fleet-check:
    cargo clippy -p swlb-fleet --all-targets -- -D warnings
    cargo test -q -p swlb-fleet
    cargo test -q -p swlb-fleet --release --test fleet_integration
    cargo test -q -p swlb-fleet --release --test fleet_crash
    cargo run --release -p swlb-fleet --bin fleet_soak -- --jobs 1000 --workers 4 --churn-every 250 --out /tmp/fleet_soak.jsonl

# Non-test source lines (everything before a file's first `#[cfg(test)]`) at a
# base commit and at the working tree, per changed file, per crate and in
# total — the figure ROADMAP tracks. `just lines -b HEAD` while uncommitted;
# `just lines crates/core/src/simd.rs …` for every named file.
lines *args:
    scripts/lines.sh {{args}}

# Peak RSS (MiB) of the release `swlb` binary on a 128³ D3Q19 cavity, 4 steps,
# under `--storage ab` and `--storage aa` — the memory line ROADMAP tracks.
rss:
    scripts/rss.sh

# Parent-vs-change pairs of one benchmark workload (benchmark/README.md, "How
# the numbers are kept steady"): alternating order, fresh seed per pair; per
# end-to-end metric both medians, both inter-quartile ranges and pairs won.
pairs workload pairs="10" base="HEAD~1":
    scripts/pairs.sh {{workload}} {{pairs}} {{base}}
