#!/usr/bin/env bash
# Non-test code lines of every crate: each crates/*/src/**/*.rs up to
# its first `#[cfg(test)]`, without blank and comment-only (`//`, `///`,
# `//!`) lines. Prints one line per crate, then the total.
#
#   bash scripts/loc.sh            # this checkout
#   bash scripts/loc.sh <dir>      # another checkout, e.g. a parent
#                                  # exported with `git archive`
#
# Compare two checkouts by running it on both; a refactor that keeps
# behaviour should make the total go down.
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

total=0
for crate in crates/*/; do
  name="$(basename "$crate")"
  lines=0
  if [[ -d "$crate/src" ]]; then
    lines="$(find "$crate/src" -name '*.rs' -print0 | sort -z |
      xargs -0 -r awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }' |
      awk '{ s += $1 } END { print s + 0 }')"
  fi
  printf '%-12s %6d\n' "$name" "$lines"
  total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
