# The CLI's failure contract, checked on one command: sh refused.sh CODE CMD...
# Runs CMD and fails unless it exits 1, prints nothing on stdout and prints
# exactly one stderr line, which starts "error[CODE]: ".  Echoes CMD's stderr
# to stdout either way, so a caller can check the line's text too.
code=$1
shift
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
status=0
"$@" > "$tmp/out" 2> "$tmp/err" || status=$?
cat "$tmp/err"
fail() { echo "refused.sh: $*" >&2; exit 1; }
[ "$status" -eq 1 ] || fail "exit status $status, want 1"
[ ! -s "$tmp/out" ] || fail "stdout is not empty"
[ "$(wc -l < "$tmp/err")" -eq 1 ] && [ "$(grep -c '' "$tmp/err")" -eq 1 ] ||
  fail "stderr is not one line"
grep -q "^error\[$code\]: " "$tmp/err" || fail "stderr does not start with error[$code]: "
