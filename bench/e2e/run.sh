#!/bin/sh
# Build the end-to-end benchmark and the pint_serve daemon it drives, then
# run it with the given arguments.  Run from the repository root, e.g.
#   sh bench/e2e/run.sh --workload live-mmul --seed 1 --seconds 12 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -e
command -v dune >/dev/null 2>&1 || eval "$(opam env)"
dune build --root . bench/e2e/main.exe bin/pint_serve.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
