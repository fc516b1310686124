#!/usr/bin/env bash
# Peak resident memory of the release `swlb` binary on a 128³ D3Q19 lid-driven
# cavity (4 steps), once under two-grid AB storage and once under single-grid
# AA — the memory line ROADMAP tracks.
#
#   scripts/rss.sh
#
# Prints one line per scheme, `<scheme> peak_rss_mib=<MiB>`. A python3 parent
# reads the child's `ru_maxrss`, so no `/usr/bin/time` is needed. The run
# writes nothing: it happens in a temporary directory removed on exit.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p swlb-serve --bin swlb
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for storage in ab aa; do
    (cd "$work" && python3 - "$root/target/release/swlb" "$storage" <<'EOF'
import resource
import subprocess
import sys

swlb, storage = sys.argv[1:]
subprocess.run(
    [swlb, "run", "--case", "cavity", "--lattice", "d3q19", "--nx", "128", "--ny", "128",
     "--nz", "128", "--steps", "4", "--storage", storage, "--quiet"],
    check=True, stdout=subprocess.DEVNULL,
)
kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"{storage} peak_rss_mib={kib / 1024:.1f}")
EOF
    )
done
