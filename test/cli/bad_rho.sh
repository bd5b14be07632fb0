# A performance bound that is not a finite number > 0 is a usage
# error: exit 124 with a message naming --rho. Never an internal error
# (125), a table of inf windows, or an "infeasible" verdict (1).
# `simulate` takes no bound (its scenarios fix their own), so any
# --rho there is a usage error too, not a silently ignored flag.
#
# Usage: sh bad_rho.sh path/to/rexspeed.exe
set -u

exe=$1

fail() {
  echo "bad_rho.sh: $*" >&2
  exit 1
}

for args in "optimize --rho 0" "optimize --rho=-1" "optimize --rho inf" \
  "optimize --rho nan" "simulate --rho 2"; do
  # shellcheck disable=SC2086
  err=$($exe $args 2>&1 >/dev/null)
  code=$?
  [ "$code" -eq 124 ] || fail "$args exited $code, expected 124"
  case $err in
  *--rho*) ;;
  *) fail "$args: the usage error does not name --rho: $err" ;;
  esac
done

echo "bad_rho.sh: every invalid --rho is a usage error"
