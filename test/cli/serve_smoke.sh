# End-to-end smoke test of `rexspeed serve` on a Unix-domain socket:
# served answers must be byte-identical to the one-shot CLI at 1, 2
# and 4 domains, with the result cache on and off; repeated identical
# queries must register cache hits in `stats`; malformed requests get
# a structured error without killing the daemon; SIGTERM drains with
# exit code 0 and removes the socket file. A TCP round on an ephemeral
# port (EADDRINUSE-retrying, so concurrent runs cannot collide) checks
# the same identity over the other listener family. A number a double
# cannot hold gets a parse error and leaves the daemon serving. A
# client that half-closes after a burst gets every answer, then EOF.
# 1,100 idle connections, more than select can take, leave the daemon
# answering. Framing a line trickled in small pieces costs CPU about
# linear in its length.
#
# Usage: sh serve_smoke.sh path/to/rexspeed.exe path/to/serve_client.exe
set -eu

exe=$1
client=$2
# Under dune the executables arrive as bare file names relative to the
# rule's working directory; qualify them so sh does not do a PATH lookup.
case $exe in */*) ;; *) exe="./$exe" ;; esac
case $client in */*) ;; *) client="./$client" ;; esac
. "$(dirname "$0")/net.sh"
tmp=$(net_tmpdir)
server_pid=
cleanup() {
  [ -z "$server_pid" ] || kill "$server_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
  echo "serve_smoke.sh: $*" >&2
  exit 1
}

sock="$tmp/serve.sock"
opt_req='{"route":"optimize","params":{"rho":3}}'
fr_req='{"route":"frontier","params":{"config":"hera/xscale"}}'
ev_req='{"route":"evaluate","params":{"w":2764,"s1":0.4,"s2":1}}'

start_server() { # $@ = extra serve flags
  "$exe" serve --socket "$sock" "$@" 2>"$tmp/serve.err" &
  server_pid=$!
  tries=0
  until "$client" "$sock" '{"route":"health"}' status >/dev/null 2>&1; do
    kill -0 "$server_pid" 2>/dev/null || {
      cat "$tmp/serve.err" >&2
      fail "server died during startup"
    }
    tries=$((tries + 1))
    [ "$tries" -lt 200 ] || fail "server never became healthy"
    sleep 0.05
  done
}

stop_server() {
  kill -TERM "$server_pid"
  wait "$server_pid" || fail "server exited non-zero on SIGTERM"
  server_pid=
  [ ! -e "$sock" ] || fail "socket file not removed on drain"
}

# References: one-shot CLI output per domain count (evaluate is
# pool-free at replicas = 0, but --domains must still be accepted).
for d in 1 2 4; do
  "$exe" optimize --domains "$d" >"$tmp/optimize.d$d"
  "$exe" frontier -c hera/xscale --domains "$d" >"$tmp/frontier.d$d"
  "$exe" evaluate -w 2764 --s1 0.4 --s2 1 --domains "$d" >"$tmp/evaluate.d$d"
done

# Byte-identity, cache enabled: the second optimize exercises the
# cache-hit path and must serve the same bytes as the miss.
for d in 1 2 4; do
  start_server --domains "$d"
  "$client" "$sock" "$opt_req" output >"$tmp/served.opt.miss"
  "$client" "$sock" "$opt_req" output >"$tmp/served.opt.hit"
  "$client" "$sock" "$fr_req" output >"$tmp/served.fr"
  "$client" "$sock" "$ev_req" output >"$tmp/served.ev"
  cmp -s "$tmp/optimize.d$d" "$tmp/served.opt.miss" ||
    fail "d=$d: served optimize differs from CLI"
  cmp -s "$tmp/optimize.d$d" "$tmp/served.opt.hit" ||
    fail "d=$d: cached optimize differs from CLI"
  cmp -s "$tmp/frontier.d$d" "$tmp/served.fr" ||
    fail "d=$d: served frontier differs from CLI"
  cmp -s "$tmp/evaluate.d$d" "$tmp/served.ev" ||
    fail "d=$d: served evaluate differs from CLI"

  hits=$("$client" "$sock" '{"route":"stats"}' result.cache.hits)
  [ "$hits" -gt 0 ] || fail "d=$d: no cache hits after a repeated query"

  status=$("$client" "$sock" '{oops' status)
  [ "$status" = "error" ] || fail "d=$d: malformed request not rejected"
  code=$("$client" "$sock" '{oops' error.code)
  [ "$code" = "parse" ] || fail "d=$d: expected a parse error, got $code"
  health=$("$client" "$sock" '{"route":"health"}' result.status)
  [ "$health" = "serving" ] || fail "d=$d: daemon down after malformed request"
  # A number a double cannot hold is a parse error, and the same
  # process keeps answering.
  code=$("$client" "$sock" '{"route":"health","id":1e999}' error.code) ||
    fail "d=$d: no answer to an out-of-range number"
  [ "$code" = "parse" ] || fail "d=$d: out-of-range number: expected a parse error, got $code"
  kill -0 "$server_pid" 2>/dev/null || fail "d=$d: daemon died on an out-of-range number"
  health=$("$client" "$sock" '{"route":"health"}' result.status) ||
    fail "d=$d: no answer after an out-of-range number"
  [ "$health" = "serving" ] || fail "d=$d: daemon down after an out-of-range number"

  stop_server
done

# Byte-identity with the cache disabled: every query recomputes, the
# answers still match, and stats reports zero hits.
start_server --domains 2 --cache-entries 0
"$client" "$sock" "$opt_req" output >"$tmp/served.nocache.1"
"$client" "$sock" "$opt_req" output >"$tmp/served.nocache.2"
cmp -s "$tmp/optimize.d2" "$tmp/served.nocache.1" ||
  fail "cache off: served optimize differs from CLI"
cmp -s "$tmp/optimize.d2" "$tmp/served.nocache.2" ||
  fail "cache off: repeated optimize differs from CLI"
hits=$("$client" "$sock" '{"route":"stats"}' result.cache.hits)
[ "$hits" -eq 0 ] || fail "cache off: stats reports $hits hits"
stop_server

# Half-close: a client that shuts its write side after a 2000-line
# burst still gets one answer per id, then EOF.
start_server --domains 1
got=$("$client" --ids 2000 --within 60 "$sock" "$opt_req") ||
  fail "half-closed burst not answered once per id"
[ "${got%% *}" = 2000 ] ||
  fail "half-closed burst: $got (ok, shed, late), want 2000 ok"
stop_server

# A line that arrives a few pieces per read is framed at a cost linear
# in its length: a 2 MiB health line trickled in 256-byte pieces may
# cost the daemon at most 24 times the CPU of a 256 KiB one. Framing
# that copied and searched the partial line again on every read costs
# about 64 times, linear framing about 8. CPU ticks, not wall time, so
# neither a slower build nor a busy host moves the ratio.
start_server --domains 1 --max-request-bytes 4194304
server_ticks() {
  awk '{ print $14 + $15 }' "/proc/$server_pid/stat"
}
ticks=$(server_ticks)
"$client" --trickle 262144 256 --within 60 "$sock" >/dev/null ||
  fail "a trickled 256 KiB line not answered"
short_ticks=$(($(server_ticks) - ticks))
ticks=$(server_ticks)
"$client" --trickle 2097152 256 --within 60 "$sock" >/dev/null ||
  fail "a trickled 2 MiB line not answered"
long_ticks=$(($(server_ticks) - ticks))
[ "$short_ticks" -gt 0 ] || short_ticks=1 # one tick is the clock's resolution
[ "$long_ticks" -le $((24 * short_ticks)) ] ||
  fail "daemon CPU: $long_ticks ticks for a trickled 2 MiB line against $short_ticks for 256 KiB"
stop_server

# Connection cap: 1,100 idle connections, past select's FD_SETSIZE of
# 1024, must not kill the daemon. It answers health on the first,
# drops the ones past its cap, and answers a fresh client once they
# have closed. Both processes need more than 1,100 open files.
if net_fd_limit 1200; then
  start_server --domains 1
  "$client" --idle 1100 --within 30 "$sock" >/dev/null ||
    fail "1,100 idle connections: no health answer"
  kill -0 "$server_pid" 2>/dev/null ||
    fail "daemon died under 1,100 idle connections"
  stop_server
else
  echo "serve_smoke.sh: open-file limit below 1200, connection cap not checked" >&2
fi

# TCP listener: same bytes over 127.0.0.1 on an ephemeral port,
# allocated with retry on EADDRINUSE so parallel test runs coexist.
net_start_tcp_serve "$exe" "$tmp/serve.tcp.err" --domains 2 ||
  fail "could not start a TCP server on any ephemeral port"
server_pid=$NET_PID
"$client" "tcp:$NET_PORT" "$opt_req" output >"$tmp/served.tcp"
cmp -s "$tmp/optimize.d2" "$tmp/served.tcp" ||
  fail "tcp: served optimize differs from CLI"
health=$("$client" "tcp:$NET_PORT" '{"route":"health"}' result.status)
[ "$health" = "serving" ] || fail "tcp: health not serving"
kill -TERM "$server_pid"
wait "$server_pid" || fail "tcp server exited non-zero on SIGTERM"
server_pid=

# Tracing: a traced round must serve the same bytes and, on drain,
# leave a Chrome trace_event file with daemon.request spans. CI can
# set SERVE_SMOKE_TRACE_OUT to keep the file as an artifact.
trace="$tmp/trace.json"
start_server --domains 2 --trace "$trace"
"$client" "$sock" "$opt_req" output >"$tmp/served.traced.miss"
"$client" "$sock" "$opt_req" output >"$tmp/served.traced.hit"
cmp -s "$tmp/optimize.d2" "$tmp/served.traced.miss" ||
  fail "trace on: served optimize differs from CLI"
cmp -s "$tmp/optimize.d2" "$tmp/served.traced.hit" ||
  fail "trace on: cached optimize differs from CLI"
stop_server
[ -s "$trace" ] || fail "trace file missing or empty after drain"
grep -q '"traceEvents"' "$trace" || fail "trace file lacks traceEvents"
grep -q '"ph":"X"' "$trace" || fail "trace file has no complete events"
grep -q '"cat":"daemon.request"' "$trace" ||
  fail "trace file has no daemon.request spans"
grep -q '"cat":"cache.lookup"' "$trace" ||
  fail "trace file has no cache.lookup spans"
if [ -n "${SERVE_SMOKE_TRACE_OUT:-}" ]; then
  cp "$trace" "$SERVE_SMOKE_TRACE_OUT"
fi

echo "serve_smoke.sh: all serve checks passed"
