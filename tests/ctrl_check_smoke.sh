#!/bin/sh
# Remote parity over real TCP: agent_server on an ephemeral port, and
# master_client --check against it, which fails unless two networked
# sessions reproduce their in-process runs bit for bit (the exploration
# RNG state travels in every explore request and reply). The server is
# killed however the script ends. When a step fails, the script says which
# and prints the server's log.
#
# Usage: ctrl_check_smoke.sh <agent_server binary> <master_client binary>
set -e
dir=$(mktemp -d)
server=
cleanup() {
  if [ -n "$server" ]; then
    kill "$server" 2>/dev/null || true
    wait "$server" 2>/dev/null || true
  fi
  rm -rf "$dir"
}
trap cleanup EXIT
trap 'exit 1' INT TERM HUP
"$1" --port=0 --threads=1 > "$dir/server.log" 2>&1 &
server=$!
port=
tries=0
while [ -z "$port" ]; do
  port=$(sed -n 's/^listening on \([0-9][0-9]*\)$/\1/p' "$dir/server.log")
  tries=$((tries + 1))
  if [ -z "$port" ] && [ "$tries" -ge 200 ]; then
    echo "agent_server printed no port:"
    cat "$dir/server.log"
    exit 1
  fi
  [ -n "$port" ] || sleep 0.05
done
status=0
"$2" --connect=127.0.0.1:"$port" --check --sessions=2 --threads=1 ||
  status=$?
if [ "$status" -ne 0 ]; then
  echo "master_client --check against port $port exited $status;" \
    "agent_server log:"
  cat "$dir/server.log"
  exit "$status"
fi
