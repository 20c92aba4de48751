#!/bin/sh
# serve_bench.sh — run a llva-loadgen burst against a freshly started
# llva-serve and tear it down, for repeatable serve-throughput numbers.
#
# Parameters (environment, all optional):
#   PORT       listen port                     (default 18080)
#   SESSIONS   concurrent client sessions      (default 10000)
#   TOTAL      total runs                      (default 50000)
#   GAS        per-run gas budget              (default 10000000)
#   POOL       llva-serve -pool value          (default 0: one per worker)
#   QUEUE      llva-serve -queue value         (default 2 x SESSIONS, so a
#              full burst admits without shedding and the measurement is
#              throughput, not admission control)
#   JSON_OUT   archive the report here         (default: none)
#   SERVE_ARGS extra llva-serve flags
set -eu

PORT="${PORT:-18080}"
SESSIONS="${SESSIONS:-10000}"
TOTAL="${TOTAL:-50000}"
GAS="${GAS:-10000000}"
POOL="${POOL:-0}"
QUEUE="${QUEUE:-$((SESSIONS * 2))}"

cd "$(dirname "$0")/.."
bin="$(mktemp -d)"
trap 'kill "$serve_pid" 2>/dev/null || true; wait "$serve_pid" 2>/dev/null || true; rm -rf "$bin"' EXIT INT TERM

go build -o "$bin/llva-serve" ./cmd/llva-serve
go build -o "$bin/llva-loadgen" ./cmd/llva-loadgen

"$bin/llva-serve" -addr "127.0.0.1:$PORT" -pool "$POOL" -queue "$QUEUE" ${SERVE_ARGS:-} &
serve_pid=$!

# Wait for the server to accept requests.
i=0
until curl -sf "http://127.0.0.1:$PORT/metrics" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -ge 100 ]; then
		echo "serve_bench: llva-serve did not come up on port $PORT" >&2
		exit 1
	fi
	sleep 0.1
done

set -- -addr "http://127.0.0.1:$PORT" -sessions "$SESSIONS" -total "$TOTAL" -gas "$GAS"
[ -n "${JSON_OUT:-}" ] && set -- "$@" -json "$JSON_OUT"
"$bin/llva-loadgen" "$@"
