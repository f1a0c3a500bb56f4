#!/bin/sh
# Prints the `estimate` output that estimate_golden.txt pins, each case
# after a `$ arraygain estimate CSV ...` line.  The CSVs are written to a
# temporary directory first; each line names its CSV without the directory.
# Regenerate the file (only where the output is meant to change) with
#   PYTHONPATH=src sh tests/data/estimate_golden.sh python3 > tests/data/estimate_golden.txt
# The first argument is the Python to run, with arraygain importable.
set -e
py="${1:-python3}"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
csv() {
    name=$1
    shift
    printf '%s\n' rows,cols,tx_power_dbm,rx_power_dbm "$@" > "$dir/$name"
}
run() {
    name=$1
    shift
    echo "\$ arraygain estimate $name${*:+ $*}"
    "$py" -m arraygain estimate "$dir/$name" "$@" || echo "exit $?"
}
# the README example: gains of the forward model at normalized spreads
# 0.04 (azimuth) and 0.0009 (elevation), three pairs per axis
csv readme.csv 4,4,10.0,-70.0 4,8,10.0,-68.67273079298607 4,16,10.0,-68.1590124026471 \
    8,4,10.0,-67.08026105137972 16,4,10.0,-64.39858549631887
run readme.csv --element-gain-dbi 5 --predict 16 16
# the CSVs of the stdlib CI job
csv m.csv 4,4,10.0,-70.0 4,8,10.0,-67.2 8,4,10.0,-67.1 8,8,10.0,-64.4
run m.csv --element-gain-dbi 5 --predict 16 16
csv zero.csv 8,8,0.0,-70.000000000000 8,4,0.0,-70.000001017877 4,8,0.0,-70.000001017877
run zero.csv --predict 8 7
# one pair per axis, solved without the least-squares sums
csv single.csv 4,4,10.0,-70.0 4,8,10.0,-67.85066363674265 8,4,10.0,-67.14650600530423
run single.csv --element-gain-dbi 5 --predict 8 8
# an azimuth pair of equal gains, skipped and counted
csv skipped.csv 4,4,10.0,-70.0 4,8,10.0,-70.0 4,16,10.0,-67.0 8,4,10.0,-67.5 16,4,10.0,-65.8
run skipped.csv --element-gain-dbi 5 --predict 16 16
# an element given by its two beamwidths
run readme.csv --bw-elev-deg 20 --bw-azim-deg 10 --predict 8 32
# baselines other than the first record
run readme.csv --baseline-index 2 --element-gain-dbi 5 --predict 4 4
run m.csv --baseline-index 3 --predict 2 2
# no elevation pair: an error line on stderr, nothing on stdout
csv cols_only.csv 4,4,10.0,-70.0 4,8,10.0,-67.0
run cols_only.csv
