# Flags the CLI cannot honour are usage errors: exit 124 with a message
# naming the flag. Never an internal error (125), a silently ignored
# flag, a table of inf windows, or an "infeasible" verdict (1).
# - A performance bound that is not a finite number > 0.
# - Any --rho to `simulate`, which takes no bound (its scenarios fix
#   their own).
# - --chaos-seed without --chaos, whose stream it seeds; even with
#   REXSPEED_CHAOS set, which would otherwise inject with seed 0.
#
# Usage: sh usage_errors.sh path/to/rexspeed.exe
set -u

exe=$1

fail() {
  echo "usage_errors.sh: $*" >&2
  exit 1
}

# check FLAG ARGS...: rexspeed ARGS must exit 124 and name FLAG.
check() {
  flag=$1
  shift
  err=$("$exe" "$@" 2>&1 >/dev/null)
  code=$?
  [ "$code" -eq 124 ] || fail "$* exited $code, expected 124"
  case $err in
  *"$flag"*) ;;
  *) fail "$*: the usage error does not name $flag: $err" ;;
  esac
}

check --rho optimize --rho 0
check --rho optimize --rho=-1
check --rho optimize --rho inf
check --rho optimize --rho nan
check --rho simulate --rho 2
check --chaos-seed simulate --replicas 200 --chaos-seed 7
REXSPEED_CHAOS=0.3 check --chaos-seed simulate --replicas 200 --chaos-seed 7

echo "usage_errors.sh: every flag the CLI cannot honour is a usage error"
