#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it with the given
# arguments (see README.md). Build output goes to standard error, so the
# benchmark's result line stays the last line of standard output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/e2ebench" "$@"
