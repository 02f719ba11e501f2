#!/usr/bin/env bash
# Prints the size of the runtime crate's sources: lines across
# crates/runtime/src/*.rs and the count of `pub` items (functions,
# structs, enums, type aliases, traits and consts). These are the two
# counts ROADMAP aim 2 tracks; the script reports them and gates
# nothing.
#
# Run from anywhere: paths resolve relative to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

lines=$(cat crates/runtime/src/*.rs | wc -l)
pub_items=$(cat crates/runtime/src/*.rs | grep -cE '^\s*pub (fn|struct|enum|type|trait|const)')
echo "runtime src lines: ${lines}"
echo "runtime pub items: ${pub_items}"
