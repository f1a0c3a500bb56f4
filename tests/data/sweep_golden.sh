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
"$py" -m arraygain optimize --elements 720 --element-gain-dbi 5 --asd-deg 22 --zsd-deg 5 \
    --csv "$csv" > /dev/null
cat "$csv"
