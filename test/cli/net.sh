# Shared networking helpers for the serve/shard CLI tests. Sourced
# (`. net.sh`), POSIX sh only.
#
# Two collision hazards when serve tests run concurrently (dune runs
# independent rules in parallel, and CI may run several checkouts on
# one machine):
#   - Unix sockets: sun_path is ~108 bytes, so a deep TMPDIR silently
#     truncates; and a fixed path collides across runs.
#   - TCP ports: any fixed port eventually hits EADDRINUSE.
# net_tmpdir returns a short unique directory for socket files;
# net_start_tcp_serve picks a pseudo-random ephemeral port and retries
# on bind failure instead of failing the test.

# A fresh private directory whose socket paths stay well under the
# sun_path limit: falls back from $TMPDIR to /tmp when the former is
# long or contains spaces.
net_tmpdir() {
  _base="${TMPDIR:-/tmp}"
  case $_base in *" "*) _base=/tmp ;; esac
  if [ "$(printf %s "$_base" | wc -c)" -gt 60 ]; then _base=/tmp; fi
  mktemp -d "${_base%/}/rexspeed.XXXXXX"
}

# Candidate port in [20000, 60000), spread by PID, attempt number and
# wall time so concurrent runs diverge quickly.
net_port_candidate() { # $1 = attempt number
  echo $((20000 + (($$ * 37 + $1 * 131 + $(date +%s))) % 40000))
}

# Start `EXE serve --port <ephemeral> FLAGS...` with retry on a port
# already in use. On success sets NET_PORT and NET_PID; the caller
# owns the process. Usage: net_start_tcp_serve EXE ERRFILE [flags...]
net_start_tcp_serve() {
  _exe=$1
  _errfile=$2
  shift 2
  _attempt=0
  while [ "$_attempt" -lt 10 ]; do
    _port=$(net_port_candidate "$_attempt")
    "$_exe" serve --port "$_port" "$@" 2>"$_errfile" &
    _pid=$!
    _i=0
    while :; do
      if ! kill -0 "$_pid" 2>/dev/null; then
        wait "$_pid" 2>/dev/null || true
        # EADDRINUSE surfaces as the daemon's listener error: pick
        # another port. Anything else is a real failure.
        if grep -q "cannot listen on 127.0.0.1" "$_errfile"; then
          break
        fi
        cat "$_errfile" >&2
        return 1
      fi
      if grep -q "listening on tcp:" "$_errfile" 2>/dev/null; then
        NET_PORT=$_port
        NET_PID=$_pid
        return 0
      fi
      _i=$((_i + 1))
      if [ "$_i" -ge 200 ]; then
        kill "$_pid" 2>/dev/null || true
        wait "$_pid" 2>/dev/null || true
        return 1
      fi
      sleep 0.05
    done
    _attempt=$((_attempt + 1))
  done
  return 1
}

# Raise this shell's soft open-file limit to at least $1, for a check
# that holds many connections; the servers it starts afterwards inherit
# it. Fails, changing nothing, if the limit cannot reach $1.
net_fd_limit() { # $1 = files
  _n=$(ulimit -n)
  [ "$_n" = unlimited ] && return 0
  [ "$_n" -ge "$1" ] && return 0
  ulimit -S -n "$1" 2>/dev/null
}
