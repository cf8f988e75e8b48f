#!/usr/bin/env bash
# Smoke test of the installed `qnet` console script, run by both CI jobs.
# Writes its files to $RUNNER_TEMP.
set -eo pipefail
qnet gen chain --nodes 3 --out "$RUNNER_TEMP/c.json"
qnet match --config "$RUNNER_TEMP/c.json"
# the brute-force grid confirms the conjugate match, and no numpy warning becomes a traceback
PYTHONWARNINGS=error qnet match --config "$RUNNER_TEMP/c.json" --grid-check > "$RUNNER_TEMP/g.out"
grep -q '"within_one_cell": true' "$RUNNER_TEMP/g.out"
qnet gen random --nodes 3 --seed 1 --out "$RUNNER_TEMP/r.json"
# the density-matrix oracle on three nodes (dim 64), and no numpy warning becomes a traceback
PYTHONWARNINGS=error qnet oracle --config "$RUNNER_TEMP/r.json" --n-max 3 > "$RUNNER_TEMP/r.out"
grep -q '"dim": 64' "$RUNNER_TEMP/r.out"
if qnet gen chain --nodes 3 --seed 1 --out "$RUNNER_TEMP/x.json"; then exit 1; fi
if qnet solve --config "$RUNNER_TEMP/c.json" --bogus 1 2> "$RUNNER_TEMP/err.txt"; then exit 1; fi
grep -q '^usage: qnet solve' "$RUNNER_TEMP/err.txt"
# a NaN node frequency exits 2 with one input error that names its index
sed 's/"omega": 1000.0/"omega": NaN/' "$RUNNER_TEMP/c.json" > "$RUNNER_TEMP/nan.json"
code=0
qnet solve --config "$RUNNER_TEMP/nan.json" 2> "$RUNNER_TEMP/nan.err" || code=$?
test "$code" = 2 && grep -q 'got nan at \[0\]' "$RUNNER_TEMP/nan.err"
# an overflowing Thevenin pair exits 3 with one line, and no numpy warning becomes a traceback
qnet gen chain --nodes 2 --gamma 1e-9 --rabi-re 1e300 --gamma-load 1e-9 --out "$RUNNER_TEMP/o.json"
code=0
PYTHONWARNINGS=error qnet thevenin --config "$RUNNER_TEMP/o.json" > "$RUNNER_TEMP/o.out" 2> "$RUNNER_TEMP/o.err" || code=$?
test "$code" = 3 && test ! -s "$RUNNER_TEMP/o.out" && test "$(wc -l < "$RUNNER_TEMP/o.err")" -eq 1
