#!/bin/sh
# Fail when a table committed in EXPERIMENTS.md differs from what
# `experiments all` prints.  A table is a fenced block of EXPERIMENTS.md
# whose first line starts with "bench"; it must equal, line for line, the
# generated table with the same header row.  Dashed rule lines are ignored
# on both sides (the committed tables omit them).  The simulated figures
# are deterministic, so any difference means a change moved them and the
# tables and the claims judged on them must be recommitted.
#
# Run from the repository root:  sh tools/check_experiments.sh
set -eu
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
dune exec bin/experiments.exe -- all > "$tmp/all.txt"

# one file per table: doc.N from EXPERIMENTS.md, gen.N from the generator
awk -v dir="$tmp" '
  /^```/ { inblk = !inblk; first = inblk; f = ""; next }
  inblk && first { first = 0; if ($1 == "bench") f = sprintf("%s/doc.%d", dir, ++n) }
  f != "" && !/^-+$/ { print > f }
' EXPERIMENTS.md
awk -v dir="$tmp" '
  $1 == "bench" { f = sprintf("%s/gen.%d", dir, ++n) }
  /^$/ { f = "" }
  f != "" && !/^-+$/ { print > f }
' "$tmp/all.txt"

status=0
checked=0
for doc in "$tmp"/doc.*; do
  [ -e "$doc" ] || break
  checked=$((checked + 1))
  header=$(head -n 1 "$doc")
  match=""
  for gen in "$tmp"/gen.*; do
    if [ "$(head -n 1 "$gen")" = "$header" ]; then match=$gen; fi
  done
  if [ -z "$match" ]; then
    echo "EXPERIMENTS.md: no generated table has the header: $header"
    status=1
  elif ! diff -u "$match" "$doc" > "$tmp/diff"; then
    echo "EXPERIMENTS.md: table differs from the generator (- generated, + committed):"
    cat "$tmp/diff"
    status=1
  fi
done
if [ "$checked" -eq 0 ]; then
  echo "EXPERIMENTS.md: no tables found"
  status=1
fi
[ "$status" -eq 0 ] && echo "EXPERIMENTS.md: all $checked tables match the generator"
exit "$status"
