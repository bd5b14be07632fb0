# A performance bound that is not a finite number > 0 is a usage
# error: exit 124 with a message naming --rho. Never an internal error
# (125), a table of inf windows, or an "infeasible" verdict (1).
#
# Usage: sh bad_rho.sh path/to/rexspeed.exe
set -u

exe=$1

fail() {
  echo "bad_rho.sh: $*" >&2
  exit 1
}

for arg in "--rho 0" "--rho=-1" "--rho inf" "--rho nan"; do
  # shellcheck disable=SC2086
  err=$($exe optimize $arg 2>&1 >/dev/null)
  code=$?
  [ "$code" -eq 124 ] || fail "optimize $arg exited $code, expected 124"
  case $err in
  *--rho*) ;;
  *) fail "optimize $arg: the usage error does not name --rho: $err" ;;
  esac
done

echo "bad_rho.sh: every invalid --rho is a usage error"
