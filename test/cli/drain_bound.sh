# The drain bound: a server stopped with SIGTERM exits within its 30 s
# drain bound whatever a client does. A client pipelines 4,000
# requests and never reads its answers. A daemon started with
# --io-timeout-ms 0, which never drops that client on its own, must
# exit 0 within 45 s of SIGTERM and remove its socket; so must a
# --shards 2 router, and it must leave no worker behind.
#
# Each server takes about 30 s to stop, so this script runs for about
# a minute: run it under `timeout`, outside `dune runtest`.
#
# Usage: sh drain_bound.sh path/to/rexspeed.exe path/to/serve_client.exe
set -eu

exe=$1
client=$2
case $exe in */*) ;; *) exe="./$exe" ;; esac
case $client in */*) ;; *) client="./$client" ;; esac
. "$(dirname "$0")/net.sh"
tmp=$(net_tmpdir)
# A fleet's runtime directory goes under $tmp, so its workers can be
# found by command line.
export TMPDIR="$tmp"
server_pid=
stall_pid=
cleanup() {
  [ -z "$stall_pid" ] || kill "$stall_pid" 2>/dev/null || true
  [ -z "$server_pid" ] || kill -KILL "$server_pid" 2>/dev/null || true
  pkill -KILL -f "$tmp/rexspeed-shard" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
  echo "drain_bound.sh: $*" >&2
  exit 1
}

sock="$tmp/serve.sock"
opt_req='{"route":"optimize","params":{"rho":3}}'

# check LABEL SERVE-FLAGS...: start a server, stall it with a client
# that never reads, SIGTERM it and demand a clean exit within 45 s.
check() {
  label=$1
  shift
  "$exe" serve --socket "$sock" "$@" 2>"$tmp/serve.err" &
  server_pid=$!
  tries=0
  until "$client" "$sock" '{"route":"health"}' status >/dev/null 2>&1; do
    kill -0 "$server_pid" 2>/dev/null || {
      cat "$tmp/serve.err" >&2
      fail "$label died during startup"
    }
    tries=$((tries + 1))
    [ "$tries" -lt 200 ] || fail "$label never became healthy"
    sleep 0.05
  done
  rm -f "$tmp/stall.out"
  "$client" --pipeline 4000 --no-read "$sock" "$opt_req" >"$tmp/stall.out" &
  stall_pid=$!
  tries=0
  until [ -s "$tmp/stall.out" ]; do
    tries=$((tries + 1))
    [ "$tries" -lt 600 ] || fail "$label: non-reading client never stopped writing"
    sleep 0.05
  done
  start=$(date +%s)
  kill -TERM "$server_pid"
  tries=0
  while kill -0 "$server_pid" 2>/dev/null; do
    tries=$((tries + 1))
    [ "$tries" -lt 450 ] ||
      fail "$label still running 45 s after SIGTERM with a client that stopped reading"
    sleep 0.1
  done
  status=0
  wait "$server_pid" || status=$?
  server_pid=
  [ "$status" -eq 0 ] || fail "$label exited $status on SIGTERM"
  [ ! -e "$sock" ] || fail "$label left its socket behind"
  kill "$stall_pid" 2>/dev/null || true
  wait "$stall_pid" 2>/dev/null || true
  stall_pid=
  echo "drain_bound.sh: $label exited $(($(date +%s) - start)) s after SIGTERM"
}

check "daemon with --io-timeout-ms 0" --io-timeout-ms 0
check "router with --shards 2" --shards 2
sleep 0.2
if pgrep -f "$tmp/rexspeed-shard" >/dev/null; then
  fail "a worker outlived its router's drain"
fi

echo "drain_bound.sh: every server drained within its bound"
