#!/usr/bin/env bash
# Builds nanoleak-cli and the benchmark from source, then runs one
# workload against the freshly built binary:
#
#   bash nanobench/run.sh --workload paper_suite --seed 1 --seconds 20 --trace 0
#
# Both builds share one target directory, $CARGO_TARGET_DIR (default:
# target/), so the crates they have in common can be reused. The last
# line of stdout is the JSON result; build output and progress go to
# stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "nanobench: $root is not a nanoleak source checkout" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p nanoleak --bin nanoleak-cli >&2
cli="$(cd "$CARGO_TARGET_DIR/release" && pwd)/nanoleak-cli"
exec cargo run --release --offline --quiet --manifest-path nanobench/Cargo.toml -- --cli "$cli" "$@"
