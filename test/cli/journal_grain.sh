# The journal's grain is part of its fingerprint: a journal written one
# record per slot (per_slot.journal, by a build before block records,
# from `simulate --replicas 4 --journal`) is refused on --resume with
# exit 2 and a message naming both fingerprints. It is never misread,
# and it is left exactly as it was.
#
# Usage: sh journal_grain.sh path/to/rexspeed.exe path/to/per_slot.journal
set -u

exe=$1
fixture=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

fail() {
  echo "journal_grain.sh: $*" >&2
  exit 1
}

cp "$fixture" "$tmp/journal"
$exe simulate --replicas 4 --journal "$tmp/journal" --resume \
  >"$tmp/out" 2>"$tmp/err"
code=$?
[ "$code" -eq 2 ] || fail "a per-slot journal resumed with exit $code, expected 2"
grep -q "journal fingerprint mismatch" "$tmp/err" ||
  fail "the refusal does not say why: $(cat "$tmp/err")"
grep -q "replicas=4 seed=42 scenario=Hera/XScale #slots=4\$" "$tmp/err" ||
  fail "the refusal does not name the journal's fingerprint"
grep -q "#slots=4 #block=64\$" "$tmp/err" ||
  fail "the refusal does not name this run's grain"
if grep -q "pattern time" "$tmp/out"; then
  fail "results were printed from a refused journal"
fi
cmp -s "$fixture" "$tmp/journal" || fail "the refused journal was modified"

echo "journal_grain.sh: a per-slot journal is refused and left intact"
