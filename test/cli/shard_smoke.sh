# Cross-shard byte-identity e2e for `rexspeed serve --shards N`: any
# request routed through the consistent-hash router must return bytes
# identical to the one-shot CLI render, at 1/2/4 worker domains, on
# the miss path and the (per-shard) cache-hit path — and again after a
# forced failover, where every worker is SIGKILLed and the router must
# respawn the fleet and keep answering without a lost or divergent
# response. SIGTERM must drain the router, remove its socket and leave
# no orphaned worker processes. Workers must run the router's
# --domains, and the router must keep serving a pipelined burst, and
# everyone else while one client stops reading, without failing over a
# healthy worker. A burst eight times longer may cost the router at
# most 24 times its CPU. A client that half-closes gets every answer,
# then EOF; a shedding worker's out-of-order answers still reach their
# client exactly once; a wedged worker is failed over on its stalled
# health probe. A number a double cannot hold gets a parse error and
# leaves the router serving. 1,100 idle connections, more than select
# can take, leave the router answering. A SIGTERM that lands while a
# burst is in flight still answers every request, then drains. Framing
# a line trickled in small pieces costs the router CPU about linear in
# its length. Whole answer lines, ids of every JSON kind and the
# router's own errors included, are the single daemon's bytes.
#
# Usage: sh shard_smoke.sh path/to/rexspeed.exe path/to/serve_client.exe
set -eu

exe=$1
client=$2
case $exe in */*) ;; *) exe="./$exe" ;; esac
case $client in */*) ;; *) client="./$client" ;; esac
. "$(dirname "$0")/net.sh"
tmp=$(net_tmpdir)
# Every fleet's runtime directory goes under $tmp, so the exit trap can
# find and kill any worker a dead router left behind.
export TMPDIR="$tmp"
router_pid=
stall_pid=
burst_pid=
cleanup() {
  [ -z "$stall_pid" ] || kill "$stall_pid" 2>/dev/null || true
  [ -z "$burst_pid" ] || kill "$burst_pid" 2>/dev/null || true
  [ -z "$router_pid" ] || kill "$router_pid" 2>/dev/null || true
  pkill -KILL -f "$tmp/rexspeed-shard" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
  echo "shard_smoke.sh: $*" >&2
  exit 1
}

sock="$tmp/router.sock"
opt_req='{"route":"optimize","params":{"rho":3}}'
fr_req='{"route":"frontier","params":{"config":"hera/xscale"}}'
ev_req='{"route":"evaluate","params":{"w":2764,"s1":0.4,"s2":1}}'

start_router() { # $1 = shards, $2 = domains, then extra serve flags
  n_shards=$1
  n_domains=$2
  shift 2
  "$exe" serve --shards "$n_shards" --socket "$sock" --domains "$n_domains" \
    "$@" 2>"$tmp/router.err" &
  router_pid=$!
  tries=0
  until "$client" "$sock" '{"route":"health"}' status >/dev/null 2>&1; do
    kill -0 "$router_pid" 2>/dev/null || {
      cat "$tmp/router.err" >&2
      fail "router died during startup"
    }
    tries=$((tries + 1))
    [ "$tries" -lt 200 ] || fail "router never became healthy"
    sleep 0.05
  done
  got=$("$client" "$sock" '{"route":"health"}' result.shard.0.health.workers.domains)
  [ "$got" = "$n_domains" ] ||
    fail "worker runs $got domain(s), want --domains $n_domains"
}

failovers() {
  "$client" "$sock" '{"route":"health"}' result.router.failovers
}

stop_router() {
  kill -TERM "$router_pid"
  wait "$router_pid" || fail "router exited non-zero on SIGTERM"
  router_pid=
  [ ! -e "$sock" ] || fail "router socket not removed on drain"
}

check_identity() { # $1 = domains, $2 = label
  "$client" "$sock" "$opt_req" output >"$tmp/served.opt"
  "$client" "$sock" "$fr_req" output >"$tmp/served.fr"
  "$client" "$sock" "$ev_req" output >"$tmp/served.ev"
  cmp -s "$tmp/optimize.d$1" "$tmp/served.opt" ||
    fail "$2: served optimize differs from CLI"
  cmp -s "$tmp/frontier.d$1" "$tmp/served.fr" ||
    fail "$2: served frontier differs from CLI"
  cmp -s "$tmp/evaluate.d$1" "$tmp/served.ev" ||
    fail "$2: served evaluate differs from CLI"
}

worker_pids() { # $1 = shards
  i=0
  while [ "$i" -lt "$1" ]; do
    "$client" "$sock" '{"route":"health"}' "result.shard.$i.pid"
    printf ' '
    i=$((i + 1))
  done
}

# References: one-shot CLI output per domain count.
for d in 1 2 4; do
  "$exe" optimize --domains "$d" >"$tmp/optimize.d$d"
  "$exe" frontier -c hera/xscale --domains "$d" >"$tmp/frontier.d$d"
  "$exe" evaluate -w 2764 --s1 0.4 --s2 1 --domains "$d" >"$tmp/evaluate.d$d"
done

# Identity across shard counts and worker domain counts; the repeat
# exercises each shard's warm cache (consistent hashing sends the
# repeated request to the same worker).
for shards in 2 3; do
  for d in 1 2 4; do
    # Bound the matrix: 3 shards only at 1 domain.
    [ "$shards" -eq 2 ] || [ "$d" -eq 1 ] || continue
    start_router "$shards" "$d"
    got=$("$client" "$sock" '{"route":"health"}' result.shards)
    [ "$got" = "$shards" ] || fail "health reports $got shards, want $shards"
    check_identity "$d" "shards=$shards d=$d miss"
    check_identity "$d" "shards=$shards d=$d hit"
    routed=$("$client" "$sock" '{"route":"health"}' result.router.routed)
    [ "$routed" -ge 6 ] || fail "router.routed=$routed after 6 requests"
    # A number a double cannot hold is a parse error, and the same
    # router keeps answering.
    code=$("$client" "$sock" '{"route":"health","id":1e999}' error.code) ||
      fail "shards=$shards d=$d: no answer to an out-of-range number"
    [ "$code" = "parse" ] ||
      fail "shards=$shards d=$d: out-of-range number: expected a parse error, got $code"
    kill -0 "$router_pid" 2>/dev/null ||
      fail "shards=$shards d=$d: router died on an out-of-range number"
    check_identity "$d" "shards=$shards d=$d after an out-of-range number"
    stop_router
  done
done

# Pipelining through the fleet: a 2000-request burst from a client that
# reads as it goes is answered in full, byte-identical, with no
# failover; and while another client pipelines without ever reading,
# a health request still answers within 5 s: the router never waits
# on one client.
start_router 2 1
# The router's CPU time (utime + stime, in clock ticks) across a burst.
# CPU ticks, not wall time, so neither a slower build nor a busy host
# moves the ratio between two bursts.
router_ticks() {
  awk '{ print $14 + $15 }' "/proc/$router_pid/stat"
}
ticks=$(router_ticks)
"$client" --pipeline 2000 --within 60 "$sock" "$opt_req" "$tmp/optimize.d1" \
  >/dev/null || fail "pipelined burst through the router not fully answered"
short_ticks=$(($(router_ticks) - ticks))
[ "$(failovers)" = 0 ] || fail "router failed over during a pipelined burst"
# Eight times the burst costs the router at most 24 times the CPU: its
# cost per line must not grow with the number of lines it owes.
ticks=$(router_ticks)
"$client" --pipeline 16000 --within 60 "$sock" "$opt_req" "$tmp/optimize.d1" \
  >/dev/null || fail "16000-line burst through the router not fully answered"
long_ticks=$(($(router_ticks) - ticks))
[ "$short_ticks" -gt 0 ] || short_ticks=1 # one tick is the clock's resolution
[ "$long_ticks" -le $((24 * short_ticks)) ] ||
  fail "router CPU: $long_ticks ticks for 16000 lines against $short_ticks for 2000"
[ "$(failovers)" = 0 ] || fail "router failed over during a 16000-line burst"
# A client that half-closes after its burst gets every answer, each id
# once, and then EOF.
got=$("$client" --ids 2000 --within 60 "$sock" "$opt_req") ||
  fail "half-closed burst through the router not answered once per id"
[ "${got%% *}" = 2000 ] ||
  fail "half-closed burst through the router: $got (ok, shed, late), want 2000 ok"
"$client" --pipeline 4000 --no-read "$sock" "$opt_req" >"$tmp/stall.out" &
stall_pid=$!
tries=0
until [ -s "$tmp/stall.out" ]; do
  tries=$((tries + 1))
  [ "$tries" -lt 600 ] || fail "non-reading client never stopped writing"
  sleep 0.05
done
"$client" --pipeline 1 --within 5 "$sock" '{"route":"health"}' >/dev/null ||
  fail "health through the router waited on a client that stopped reading"
[ "$(failovers)" = 0 ] || fail "router failed over while a client stalled"
kill "$stall_pid"
wait "$stall_pid" 2>/dev/null || true
stall_pid=
stop_router

# A line that arrives a few pieces per read is framed at a cost linear
# in its length, on the router's client side as in the daemon: a 2 MiB
# health line trickled in 256-byte pieces may cost the router at most
# 24 times the CPU of a 256 KiB one (about 8 times when linear, 64 when
# each read copies and searches the partial line again).
start_router 2 1 --max-request-bytes 4194304
ticks=$(router_ticks)
"$client" --trickle 262144 256 --within 60 "$sock" >/dev/null ||
  fail "a trickled 256 KiB line not answered through the router"
short_ticks=$(($(router_ticks) - ticks))
ticks=$(router_ticks)
"$client" --trickle 2097152 256 --within 60 "$sock" >/dev/null ||
  fail "a trickled 2 MiB line not answered through the router"
long_ticks=$(($(router_ticks) - ticks))
[ "$short_ticks" -gt 0 ] || short_ticks=1
[ "$long_ticks" -le $((24 * short_ticks)) ] ||
  fail "router CPU: $long_ticks ticks for a trickled 2 MiB line against $short_ticks for 256 KiB"
stop_router

# Forced failover: SIGKILL the whole fleet, then demand the same bytes
# again — the router must detect the deaths, respawn every worker and
# serve without a lost or divergent response.
start_router 2 2
check_identity 2 "pre-kill"
pids=$(worker_pids 2)
for p in $pids; do
  kill -9 "$p" 2>/dev/null || fail "cannot SIGKILL worker $p"
done
check_identity 2 "post-kill"
respawns=$("$client" "$sock" '{"route":"health"}' result.router.respawns)
[ "$respawns" -ge 2 ] || fail "router.respawns=$respawns after killing 2 workers"
status=$("$client" "$sock" '{"route":"health"}' result.status)
[ "$status" = "serving" ] || fail "fleet not serving after failover: $status"

# Drain: the router and all (respawned) workers must be gone.
pids=$(worker_pids 2)
stop_router
sleep 0.2
for p in $pids; do
  if kill -0 "$p" 2>/dev/null; then
    fail "worker $p survived the router drain"
  fi
done

# Exactly once, in any order: with a 4-deep admission queue and no
# cache, the owning worker sheds most of a 3000-line burst at once and
# answers the rest later, out of request order. Every id still gets
# exactly one answer.
start_router 2 1 --max-queue 4 --cache-entries 0
got=$("$client" --ids 3000 --shed --within 60 "$sock" "$opt_req") ||
  fail "shedding fleet: not every id answered exactly once"
set -- $got
[ "$2" -gt 0 ] || fail "shedding fleet: nothing shed in a 3000-line burst ($got)"
[ "$3" -gt 0 ] || fail "shedding fleet: every answer in request order ($got)"
stop_router

# A wedged worker: SIGSTOP shard 0's worker in a fleet whose probe
# timeout is 2 s. Within 10 s the router fails it over on a stalled
# health probe, the stopped process is gone, and the bytes are the
# same.
start_router 2 1 --shard-spawn-timeout-ms 2000
stopped=$("$client" "$sock" '{"route":"health"}' result.shard.0.pid)
kill -STOP "$stopped" || fail "cannot SIGSTOP worker $stopped"
tries=0
until grep -q "health probe stalled" "$tmp/router.err"; do
  tries=$((tries + 1))
  [ "$tries" -lt 200 ] || fail "no failover within 10 s of a worker's SIGSTOP"
  sleep 0.05
done
[ "$(failovers)" -ge 1 ] || fail "router.failovers=$(failovers) after a stalled probe"
check_identity 1 "after a stalled probe"
if kill -0 "$stopped" 2>/dev/null; then
  fail "stopped worker $stopped survived its failover"
fi
stop_router

# Lines at the request limit: the router splices its ordinal into each
# line it forwards, so its workers must accept a line that much longer.
# A 64-byte-limit fleet answers lines of 64 bytes and a few below with
# the single daemon's output, each within 3 s, and a 65-byte line still
# gets too-large.
padded_request() { # $1 = total bytes
  line='{"route":"optimize","params":{"rho":3}'
  while [ "${#line}" -lt $(($1 - 1)) ]; do line="$line "; done
  printf '%s}' "$line"
}
single_sock="$tmp/single.sock"
"$exe" serve --socket "$single_sock" --max-request-bytes 64 \
  2>"$tmp/single.err" &
router_pid=$!
tries=0
until "$client" "$single_sock" '{"route":"health"}' status >/dev/null 2>&1; do
  tries=$((tries + 1))
  [ "$tries" -lt 200 ] || fail "64-byte-limit daemon never became healthy"
  sleep 0.05
done
for n in 58 60 62 64; do
  "$client" "$single_sock" "$(padded_request "$n")" output >"$tmp/near.$n" ||
    fail "single daemon: no answer to a $n-byte line"
done
kill -TERM "$router_pid"
wait "$router_pid" || fail "64-byte-limit daemon exited non-zero on SIGTERM"
"$exe" serve --shards 2 --socket "$sock" --max-request-bytes 64 \
  2>"$tmp/router.err" &
router_pid=$!
tries=0
until "$client" "$sock" '{"route":"health"}' status >/dev/null 2>&1; do
  tries=$((tries + 1))
  [ "$tries" -lt 200 ] || fail "64-byte-limit fleet never became healthy"
  sleep 0.05
done
for n in 58 60 62 64; do
  "$client" --pipeline 1 --within 3 "$sock" "$(padded_request "$n")" \
    "$tmp/near.$n" >/dev/null ||
    fail "64-byte-limit fleet: no answer equal to the daemon's to a $n-byte line"
done
code=$("$client" "$sock" "$(padded_request 65)" error.code) ||
  fail "64-byte-limit fleet: no answer to a 65-byte line"
[ "$code" = "too-large" ] ||
  fail "64-byte-limit fleet: a 65-byte line got $code, want too-large"
stop_router

# Whole answer lines: the same requests, one connection each, get the
# same bytes from a fresh single daemon and a fresh 2-shard fleet. The
# router splices its ordinal into every line it forwards and the
# client's id back into every answer, so the ids take every JSON kind;
# the lines the router answers itself (bad requests, parse errors) are
# compared too.
cat >"$tmp/requests" <<'REQUESTS'
{"route":"optimize","id":7,"params":{"rho":3}}
{"route":"optimize","id":-42,"params":{"rho":3}}
{"route":"frontier","id":1.5e3,"params":{"config":"hera/xscale"}}
{"route":"optimize","id":12345678901234567890,"params":{"rho":2.5}}
{"route":"evaluate","id":"tab\t \"quoted\" \u00e9 é ü \\","params":{"w":2764,"s1":0.4,"s2":1}}
{"id":{"k":[1,"x",{"n":null}]},"route":"optimize","params":{"rho":3}}
{"route":"optimize","id":[1,2,[3]],"params":{"rho":2.5}}
{"route":"optimize","id":null,"params":{"rho":3}}
{"route":"frontier","id":true,"params":{"config":"hera/xscale"}}
{"route":"optimize","params":{"rho":3}}
{"id":1,"route":"optimize","id":2,"params":{"rho":2.5}}
 	 {"route":"optimize","id":"padded","params":{"rho":3}}  	
{"route":"optimize","id":8,"params":{"rho":-1}}
{"route":"nope","id":9}
{"route":"optimize","id":10,"params":{"rho":3}
not json at all
{"route":"optimize","id":1e999,"params":{"rho":3}}
REQUESTS
answer_lines() { # $1 = socket: one raw answer line per request line
  while IFS= read -r req; do
    "$client" "$1" "$req" || return 1
  done <"$tmp/requests"
}
"$exe" serve --socket "$single_sock" --domains 1 2>"$tmp/single.err" &
router_pid=$!
tries=0
until "$client" "$single_sock" '{"route":"health"}' status >/dev/null 2>&1; do
  tries=$((tries + 1))
  [ "$tries" -lt 200 ] || fail "single daemon never became healthy"
  sleep 0.05
done
answer_lines "$single_sock" >"$tmp/single.lines" ||
  fail "single daemon: a request went unanswered"
kill -TERM "$router_pid"
wait "$router_pid" || fail "single daemon exited non-zero on SIGTERM"
start_router 2 1
answer_lines "$sock" >"$tmp/fleet.lines" ||
  fail "fleet: a request went unanswered"
stop_router
[ "$(wc -l <"$tmp/fleet.lines")" -eq "$(wc -l <"$tmp/requests")" ] ||
  fail "fleet: not one answer line per request"
cmp -s "$tmp/single.lines" "$tmp/fleet.lines" ||
  fail "fleet answer lines differ from the single daemon's"

# Connection cap: 1,100 idle connections, past select's FD_SETSIZE of
# 1024, must not kill the router. It answers health on the first,
# drops the ones past its cap, and answers a fresh client once they
# have closed. Both processes need more than 1,100 open files.
if net_fd_limit 1200; then
  start_router 2 1
  "$client" --idle 1100 --within 30 "$sock" >/dev/null ||
    fail "1,100 idle connections: no health answer through the router"
  kill -0 "$router_pid" 2>/dev/null ||
    fail "router died under 1,100 idle connections"
  stop_router
else
  echo "shard_smoke.sh: open-file limit below 1200, connection cap not checked" >&2
fi

# Drain under load: SIGTERM the router as soon as a client has written
# a 200-line burst of uncached 2,000-replica evaluations, about 2 ms of
# work each on one worker. Every id is still answered once, ok, and
# then the client reads EOF; the router exits 0, removes its socket
# and leaves no worker.
start_router 2 1 --cache-entries 0
pids=$(worker_pids 2)
slow_req='{"route":"evaluate","params":{"w":2764,"s1":0.4,"s2":1,"replicas":2000}}'
"$client" --ids 200 --sent "$tmp/burst.sent" --within 60 "$sock" "$slow_req" \
  >"$tmp/burst.out" &
burst_pid=$!
tries=0
until [ -e "$tmp/burst.sent" ]; do
  tries=$((tries + 1))
  [ "$tries" -lt 2000 ] || fail "in-flight burst never written"
  sleep 0.005
done
stop_router
wait "$burst_pid" || fail "a SIGTERM in flight left an id unanswered"
burst_pid=
got=$(cat "$tmp/burst.out")
[ "${got%% *}" = 200 ] ||
  fail "a SIGTERM in flight: $got (ok, shed, late), want 200 ok"
sleep 0.2
for p in $pids; do
  if kill -0 "$p" 2>/dev/null; then
    fail "worker $p survived a drain under load"
  fi
done

# SIGTERM while the fleet is still starting: the router drains what it
# has spawned and exits cleanly, and no worker outlives it. Its runtime
# directory goes under $tmp so its workers can be found by command line.
TMPDIR="$tmp" "$exe" serve --shards 4 --socket "$sock" 2>"$tmp/router.err" &
router_pid=$!
tries=0
until pgrep -f "$tmp/rexspeed-shard" >/dev/null; do
  tries=$((tries + 1))
  [ "$tries" -lt 2000 ] || fail "router never spawned a worker"
  sleep 0.005
done
kill -TERM "$router_pid"
status=0
wait "$router_pid" || status=$?
router_pid=
if pgrep -f "$tmp/rexspeed-shard" >/dev/null; then
  pkill -KILL -f "$tmp/rexspeed-shard" || true
  fail "a worker outlived a router stopped during startup"
fi
[ "$status" -eq 0 ] ||
  fail "router exited with status $status on SIGTERM during startup"
[ ! -e "$sock" ] || fail "router socket not removed after a startup SIGTERM"

echo "shard_smoke.sh: all shard router checks passed"
