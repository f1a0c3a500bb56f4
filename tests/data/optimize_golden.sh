#!/bin/sh
# Prints the `optimize` output that optimize_golden.txt pins, each case
# after a `$ arraygain optimize ...` line.  The scenario file is written to
# a temporary directory first; its line names it without the directory.
# Regenerate the file (only where the output is meant to change) with
#   PYTHONPATH=src sh tests/data/optimize_golden.sh python3 > tests/data/optimize_golden.txt
# The first argument is the Python to run, with arraygain importable.
set -e
py="${1:-python3}"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
run() {
    echo "\$ arraygain optimize $*"
    "$py" -m arraygain optimize "$@" || echo "exit $?"
}
# the paper's operating points: 256 elements at 5 dBi
run --elements 256 --element-gain-dbi 5 --asd-deg 14 --zsd-deg 0.6
run --elements 256 --element-gain-dbi 5 --asd-deg 22 --zsd-deg 5
# no spread, and no spread on one axis: no continuous optimum
run --elements 256 --element-gain-dbi 5 --asd-deg 0 --zsd-deg 0
run --elements 256 --element-gain-dbi 5 --asd-deg 22 --zsd-deg 0
run --elements 256 --element-gain-dbi 5 --asd-deg 0 --zsd-deg 5
# the budget from an EIRP cap
run --eirp-dbm 43 --element-power-dbm 10 --element-gain-dbi 5 --asd-deg 22 --zsd-deg 5
# a scenario file with an allowed list
printf 'element_gain_dbi = 5\nn_elements = 256\nasd_deg = 22\nzsd_deg = 5\nallowed_geometries = 16x16, 64x4\n' \
    > "$dir/case.txt"
echo "\$ arraygain optimize --scenario case.txt"
"$py" -m arraygain optimize --scenario "$dir/case.txt" || echo "exit $?"
# gains that round to zero from below print unsigned
run --bw-elev-deg 81.02847 --bw-azim-deg 81.02847 --elements 1 --asd-deg 0.001 --zsd-deg 0.001
# spread ratios that put the closed form beyond float range
run --elements 256 --element-gain-dbi 5 --asd-deg 1e-320 --zsd-deg 1e300
run --elements 256 --element-gain-dbi 5 --asd-deg 1e300 --zsd-deg 1e-300
# a subnormal zsd whose product with the azimuth width underflows to zero
run --elements 256 --bw-elev-deg 10 --bw-azim-deg 10 --asd-deg 20 --zsd-deg 3e-322
run --elements 256 --bw-elev-deg 10 --bw-azim-deg 10 --asd-deg 20 --zsd-deg 3e-322 \
    --allowed-geometries 16x16,64x4
