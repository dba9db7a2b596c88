#!/bin/sh
# Print each FILE's non-test lines — everything above its first
# `#[cfg(test)]` — prefixed `file:line: `. The one definition of
# "non-test lines": pipe into `wc -l` for a count, into `grep` for a lint.
#
#   scripts/nontest.sh FILE...
set -eu
for file in "$@"; do
    awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$file"
done
