#!/usr/bin/env bash
# Panic-site ratchet over the library crates.
#
#   .github/panic_sites.sh <max>
#
# Counts the calls that can panic on input or I/O in non-test library
# code: each occurrence of `.expect(`, `.unwrap()`, `panic!(` and
# `unreachable!(` in `crates/<crate>/src/**/*.rs` of the seven library
# crates (`moby-bench` and the vendored stand-ins are not library code).
# Only the lines before a file's first `#[cfg(test)]` count, and comment
# lines (`//`, `///`, `//!`) are skipped. Prints the count per crate and
# the total, and exits 1 when the total is above <max>. Lower <max> in
# the change that removes a site, so the count can only fall.

set -euo pipefail

CRATES=(graph core data cluster geo server community)

if [[ $# -ne 1 || ! $1 =~ ^[0-9]+$ ]]; then
  echo "usage: $0 <max>" >&2
  exit 2
fi
max=$1
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

# count_file <file>: the panic sites of one file.
count_file() {
  awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    {
      n += gsub(/\.expect\(/, "&")
      n += gsub(/\.unwrap\(\)/, "&")
      n += gsub(/panic!\(/, "&")
      n += gsub(/unreachable!\(/, "&")
    }
    END { print n + 0 }
  ' "$1"
}

total=0
for crate in "${CRATES[@]}"; do
  n=0
  while IFS= read -r -d '' file; do
    n=$((n + $(count_file "$file")))
  done < <(find "$root/crates/$crate/src" -name '*.rs' -print0)
  printf '%-10s %3d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-10s %3d (max %d)\n' total "$total" "$max"

if ((total > max)); then
  echo "panic sites: FAIL: $total is above $max" >&2
  exit 1
fi
echo "panic sites: pass"
