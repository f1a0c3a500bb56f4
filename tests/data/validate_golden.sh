#!/bin/sh
# Prints the `validate` output that validate_golden.txt pins, each case
# after a `$ arraygain validate ...` line.  Regenerate it (only where the
# output is meant to change) with
#   PYTHONPATH=src sh tests/data/validate_golden.sh python3 > tests/data/validate_golden.txt
# The first argument is the Python to run, with arraygain and numpy importable.
set -e
py="${1:-python3}"
run() {
    echo "\$ arraygain validate $*"
    "$py" -m arraygain validate "$@" || echo "exit $?"
}
# the README example
run --element-gain-dbi 8 --rows 8 --cols 16 --asd-deg 16 --zsd-deg 1
# the four cases of the benchmark's cold_cli workload
run --element-gain-dbi 8 --rows 8 --cols 16 --zsd-deg 1.0 --asd-deg 16.0 --realizations 2000
run --element-gain-dbi 5 --rows 32 --cols 8 --zsd-deg 5.0 --asd-deg 22.0 --realizations 2000
run --bw-elev-deg 20 --bw-azim-deg 10 --rows 4 --cols 4 --zsd-deg 3.0 --asd-deg 10.0 \
    --realizations 2000
run --element-gain-dbi 12 --rows 64 --cols 2 --zsd-deg 2.0 --asd-deg 30.0 --realizations 2000
# no spread, and a spread on one axis only
run --element-gain-dbi 5 --rows 16 --cols 16
run --element-gain-dbi 5 --rows 32 --cols 8 --asd-deg 22
# tall arrays whose elevation counts at the beam's exact spacing, 6322 =
# 2 * 29 * 109 and 21226 = 2 * 10613, have large prime factors
run --element-gain-dbi 5 --rows 200 --cols 4 --zsd-deg 0.3 --asd-deg 5
run --element-gain-dbi 12 --rows 300 --cols 4 --zsd-deg 0.3 --asd-deg 5
