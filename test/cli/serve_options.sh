# Every invalid `serve` option is a usage error: exit 124 with a
# message naming the flag, before anything listens or any shard worker
# spawns. A binary that accepts one of these starts serving instead;
# it is killed after 10 s and the case fails.
#
# Usage: sh serve_options.sh path/to/rexspeed.exe
set -u

exe=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "serve_options.sh: $*" >&2
  exit 1
}

# check FLAG ARGS...: serve ARGS must exit 124 and name FLAG.
check() {
  flag=$1
  shift
  "$exe" serve "$@" >/dev/null 2>"$dir/err" &
  pid=$!
  tries=0
  while kill -0 "$pid" 2>/dev/null; do
    tries=$((tries + 1))
    if [ "$tries" -gt 200 ]; then
      kill -9 "$pid" 2>/dev/null
      wait "$pid" 2>/dev/null
      fail "serve $* is still serving after 10 s"
    fi
    sleep 0.05
  done
  wait "$pid"
  code=$?
  err=$(cat "$dir/err")
  [ "$code" -eq 124 ] || fail "serve $* exited $code, expected 124: $err"
  case $err in
  *"$flag"*) ;;
  *) fail "serve $*: the usage error does not name $flag: $err" ;;
  esac
  # One line, the error itself: nothing listened and no worker spawned.
  [ "$(wc -l <"$dir/err")" -eq 1 ] ||
    fail "serve $* printed more than its error: $err"
  [ ! -e "$dir/s.sock" ] || fail "serve $* created its socket"
}

sock=$dir/s.sock
check --max-inflight --socket "$sock" --max-inflight 0
check --cache-entries --socket "$sock" --cache-entries=-1
check --verify-sample --socket "$sock" --verify-sample=-1
check --shards --socket "$sock" --shards 0
check --shards --socket "$sock" --shards 65
check --max-inflight --socket "$sock" --shards 2 --max-inflight 0
check --port --port 0
check --port --port 70000
check --socket

echo "serve_options.sh: every invalid serve option is a usage error"
