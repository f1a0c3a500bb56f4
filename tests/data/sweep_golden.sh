#!/bin/sh
# Prints the sweep and `optimize --csv` output that sweep_golden.csv pins.
# Regenerate it (only where the output is meant to change) with
#   PYTHONPATH=src sh tests/data/sweep_golden.sh python3 > tests/data/sweep_golden.csv
# The first argument is the Python to run, with arraygain importable.
set -e
py="${1:-python3}"
csv="$(mktemp)"
trap 'rm -f "$csv"' EXIT
"$py" -m arraygain sweep --elements 720 --element-gain-dbi 5 --asd-deg 22 --zsd-deg 5 \
    --geometries all
"$py" -m arraygain sweep --elements 720 --bw-elev-deg 30 --bw-azim-deg 12 --asd-deg 9 \
    --zsd-deg 0 --geometries 720x1,24x30,1x720,720x1,36x20
"$py" -m arraygain sweep --elements 40000 --element-gain-dbi 5 --asd-deg 22 --zsd-deg 5 \
    --geometries 1x1000,1x1999,2x10000,1x39999,2x10000
"$py" -m arraygain optimize --elements 720 --element-gain-dbi 5 --asd-deg 22 --zsd-deg 5 \
    --csv "$csv" > /dev/null
cat "$csv"
# no spread on either axis: the winner is 1100 x 1
"$py" -m arraygain sweep --elements 1100 --element-gain-dbi 5 --asd-deg 0 --zsd-deg 0
# no azimuth spread: the winner is 1 x 1050, past 1,000 columns
"$py" -m arraygain sweep --elements 1050 --element-gain-dbi 5 --asd-deg 0 --zsd-deg 5
# no elevation spread: the winner is 1020 x 1
"$py" -m arraygain sweep --elements 1020 --bw-elev-deg 30 --bw-azim-deg 12 --asd-deg 9 \
    --zsd-deg 0
# budgets on either side of the 1,000-column block line
for n in 999 1000 1001; do
    "$py" -m arraygain sweep --elements "$n" --element-gain-dbi 5 --asd-deg 22 --zsd-deg 5
done
# the winner 11 x 118 lies inside a run of several columns below 1,000
"$py" -m arraygain sweep --elements 1300 --element-gain-dbi 5 --asd-deg 2 --zsd-deg 20
# a list that repeats the winner 32 x 8
"$py" -m arraygain sweep --elements 256 --element-gain-dbi 5 --asd-deg 22 --zsd-deg 5 \
    --geometries 32x8,16x16,32x8,1x256,32x8
# an allowed-list optimum, 1 x 3, that is no written row: no row is flagged
"$py" -m arraygain sweep --elements 8 --element-gain-dbi 5 --asd-deg 22 --zsd-deg 5 \
    --allowed-geometries 1x3
