# Pin the bytes of `optimize`: every built-in configuration at three
# bounds in both modes, an infeasible bound (exit 1 with its diagnostic
# text), and a 14-speed custom machine that solves on the pool at one
# and two domains. Each run is preceded by its command line and
# followed by its exit status, so optimize.expected pins both.
#
# Usage: sh optimize.sh path/to/rexspeed.exe path/to/dvfs14.env
set -u

exe=$1
env_file=$2

run() {
  echo "\$ optimize $*"
  "$exe" optimize "$@"
  echo "[exit $?]"
}

for config in hera/xscale atlas/xscale coastal/xscale coastal_ssd/xscale \
  hera/crusoe atlas/crusoe coastal/crusoe coastal_ssd/crusoe; do
  for rho in 1.2 2 3.5; do
    run -c "$config" --rho "$rho"
    run -c "$config" --rho "$rho" --single-speed
  done
done
run -c hera/xscale --rho 0.5
run -c hera/xscale --rho 0.5 --single-speed
for domains in 1 2; do
  for rho in 1.2 2 3.5; do
    run --env-file "$env_file" --rho "$rho" --domains "$domains"
    run --env-file "$env_file" --rho "$rho" --domains "$domains" --single-speed
  done
done
