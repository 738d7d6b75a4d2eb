#!/usr/bin/env bash
# Non-test code lines of every crate: each crates/*/src/**/*.rs without
# its `#[cfg(test)]` items (from the attribute to the item's closing
# brace, or to its `;`) and without blank and comment-only (`//`, `///`,
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
        FNR == 1 { gated = 0 }
        gated {
          # Braces outside line comments; a `;` before any `{` ends a
          # braceless item (`mod tests;`, a `static`).
          line = $0
          sub(/\/\/.*/, "", line)
          opens = gsub(/\{/, "", line)
          closes = gsub(/\}/, "", line)
          if (!opened && !opens && line ~ /;/) { gated = 0; next }
          depth += opens - closes
          if (opens) opened = 1
          if (opened && depth <= 0) gated = 0
          next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1; depth = 0; opened = 0; next }
        !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }' |
      awk '{ s += $1 } END { print s + 0 }')"
  fi
  printf '%-12s %6d\n' "$name" "$lines"
  total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
