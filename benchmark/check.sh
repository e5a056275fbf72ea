#!/usr/bin/env bash
# The root CI does not see this package (it is not a workspace member), so it
# carries its own gate: format, lints, the harness's unit tests, and a smoke
# run of the whole suite (same code paths, sizes cut, < 15 s, marked
# "mode": "smoke" so it can never be recorded as a baseline).
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
mkdir -p out
cargo run --offline --release --quiet -- run --smoke --out out/smoke.json >/dev/null
grep -q '"mode":"smoke"' out/smoke.json
echo "benchmark/check.sh: ok"
