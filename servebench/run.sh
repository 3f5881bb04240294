#!/usr/bin/env bash
# Builds and runs servebench, from the repository root, pinned to one CPU:
#
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The client, the server's threads and the engine then share that CPU. The
# closed loop never has two of them busy at once, and on a small VM every
# wake-up across CPUs adds a delay that depends on the host's load, which
# made the point-statement workload's figures swing by a quarter between
# runs when unpinned.
set -euo pipefail
manifest="$(dirname "$0")/Cargo.toml"
if ! command -v taskset >/dev/null; then
    exec cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
fi
allowed="$(taskset -pc $$)"
cpu="${allowed##*[ ,-]}"
exec taskset -c "$cpu" cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
