# Chaos soak of the sharded router: three shared-nothing workers under
# deterministic I/O fault injection (torn writes, response-bit
# corruption caught by verified re-execution, pool-domain kills), plus
# repeated forced SIGKILLs of whole worker processes between passes.
# The gate is absolute: every committed response must be byte-identical
# to the one-shot CLI and no request may be lost — clients never retry
# here, so a dropped or divergent answer fails the soak. Afterwards the
# fleet counters must show the respawns and the absorbed faults, and
# the router trace must record the routing/failover spans.
#
# The chaos spec deliberately omits drop=: workers hold one persistent
# connection from the router, and a dropped connection would be
# indistinguishable from a worker death — the router would SIGKILL and
# respawn a healthy worker on every firing. Process-level failure is
# injected explicitly with kill -9 instead, so the soak controls how
# many failovers happen and can assert their count.
#
# Usage: sh shard_soak.sh path/to/rexspeed.exe path/to/serve_client.exe
set -eu

exe=$1
client=$2
case $exe in */*) ;; *) exe="./$exe" ;; esac
case $client in */*) ;; *) client="./$client" ;; esac
. "$(dirname "$0")/net.sh"
tmp=$(net_tmpdir)
# The fleet's runtime directory goes under $tmp, so the exit trap can
# find and kill any worker a dead router left behind.
export TMPDIR="$tmp"
router_pid=
cleanup() {
  [ -z "$router_pid" ] || kill "$router_pid" 2>/dev/null || true
  pkill -KILL -f "$tmp/rexspeed-shard" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
  echo "shard_soak.sh: $*" >&2
  exit 1
}

sock="$tmp/router.sock"
trace="$tmp/router-trace.json"
shards=3
chaos='torn=0.1,corrupt=0.35,kill=0.04,seed=1207'
rhos='2 2.25 2.5 2.75 3 3.25 3.5 3.75'

# References from the unfaulted one-shot CLI.
for rho in $rhos; do
  "$exe" optimize --rho "$rho" >"$tmp/ref.$rho"
done

env REXSPEED_CHAOS_IO="$chaos" REXSPEED_TRACE="$trace" \
  "$exe" serve --shards "$shards" --socket "$sock" --domains 2 \
  --verify-sample 1 2>"$tmp/router.err" &
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

# Strict ask: exactly one attempt. The router owes an answer even when
# the owning worker was just killed (failover + replay), so a client
# error here is a lost response and a byte difference is a divergence
# — both are soak failures.
ask() { # $1 = rho
  "$client" "$sock" \
    "{\"route\":\"optimize\",\"params\":{\"rho\":$1}}" output \
    >"$tmp/got.$1" || fail "rho=$1: response lost"
  cmp -s "$tmp/ref.$1" "$tmp/got.$1" ||
    fail "rho=$1: committed response differs from the one-shot CLI"
}

# Four passes over the rho ladder; between passes, SIGKILL one worker
# (round-robin) so the soak forces at least three full process
# failovers on top of the in-worker chaos.
kills=0
pass=0
while [ "$pass" -lt 4 ]; do
  for rho in $rhos; do
    ask "$rho"
  done
  if [ "$pass" -lt 3 ]; then
    victim=$((pass % shards))
    pid=$("$client" "$sock" '{"route":"health"}' "result.shard.$victim.pid")
    kill -9 "$pid" 2>/dev/null || fail "cannot SIGKILL worker $pid"
    kills=$((kills + 1))
  fi
  pass=$((pass + 1))
done
[ "$kills" -ge 3 ] || fail "soak forced only $kills worker kills"

# Fleet counters: every forced kill must show up as a respawn, the
# fleet must be fully serving again, and the workers' own hardening
# counters must show the in-process chaos fired and was absorbed.
respawns=$("$client" "$sock" '{"route":"health"}' result.router.respawns)
[ "$respawns" -ge 3 ] || fail "router.respawns=$respawns after 3 kills"
status=$("$client" "$sock" '{"route":"health"}' result.status)
[ "$status" = "serving" ] || fail "fleet not serving after the soak: $status"
checks=$("$client" "$sock" '{"route":"stats"}' result.hardening.verify.checks)
[ "$checks" -gt 0 ] || fail "no verification checks ran under --verify-sample 1"
divergences=$("$client" "$sock" '{"route":"stats"}' \
  result.hardening.verify.divergences)
[ "$divergences" -gt 0 ] ||
  fail "corrupt_p=0.35 soak detected no divergences"
restarts=$("$client" "$sock" '{"route":"stats"}' \
  result.hardening.workers.restarts)
[ "$restarts" -gt 0 ] || fail "kill_p=0.04 soak restarted no pool workers"

kill -TERM "$router_pid"
wait "$router_pid" || fail "router exited non-zero on SIGTERM"
router_pid=
[ ! -e "$sock" ] || fail "router socket not removed on drain"

# The router trace is the soak's flight recorder: routing spans for
# the relayed requests, failover spans and respawn counters for the
# forced kills. CI can set SHARD_SOAK_TRACE_OUT to keep it.
[ -s "$trace" ] || fail "router trace missing or empty after drain"
grep -q '"cat":"router.route"' "$trace" || fail "trace lacks router.route spans"
grep -q '"cat":"router.failover"' "$trace" ||
  fail "trace lacks router.failover spans"
grep -q 'router.routed' "$trace" || fail "trace lacks the router.routed counter"
grep -q 'shard.respawns' "$trace" ||
  fail "trace lacks the shard.respawns counter"
if [ -n "${SHARD_SOAK_TRACE_OUT:-}" ]; then
  cp "$trace" "$SHARD_SOAK_TRACE_OUT"
fi

echo "shard_soak.sh: $((pass * 8)) verified responses across $kills forced worker kills, $respawns respawn(s), $divergences divergence(s) caught, $restarts pool restart(s)"
