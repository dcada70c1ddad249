#!/usr/bin/env bash
# Starts and stops a deepod_server for scripted checks (the CI smoke jobs).
#
#   tools/server_ctl.sh start LOG CMD...
#   tools/server_ctl.sh stop PID LOG
#
# start runs CMD (a deepod_server command line with --port 0) in the
# background, stdout and stderr to LOG, waits for its "listening on
# HOST:PORT" line and prints an env file on stdout:
#   SERVER_PID=<pid>
#   SERVER_PORT=<port>
# Append it to $GITHUB_ENV, or write it to a file and source that. start
# fails, showing LOG, when the server exits before it binds, has not bound
# after 20 s or prints no port.
#
# stop sends SIGTERM (the graceful drain), waits up to 20 s for the process
# to exit and checks LOG for "shutdown complete", which the server prints
# right before it exits 0. It works from any shell, including a later CI
# step, where `wait` cannot reach a process the shell did not start.
set -euo pipefail

log=""
fail() {
  echo "server_ctl: $*" >&2
  if [[ -f "$log" ]]; then cat "$log" >&2; fi
  exit 1
}

# True once PID has exited; a zombie no longer serves, so it counts.
gone() {
  local state
  state=$(ps -o stat= -p "$1" 2>/dev/null || true)
  [[ -z "$state" || "$state" == Z* ]]
}

case "${1:-}" in
  start)
    [[ $# -ge 3 ]] || fail "usage: $0 start LOG CMD..."
    log=$2
    shift 2
    "$@" > "$log" 2>&1 &
    pid=$!
    for _ in $(seq 1 100); do
      grep -q '^listening on ' "$log" 2> /dev/null && break
      gone "$pid" && fail "server exited before binding"
      sleep 0.2
    done
    port=$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' "$log")
    if [[ -z "$port" ]]; then
      kill -TERM "$pid" 2> /dev/null || true
      fail "no listening port after 20 s"
    fi
    echo "SERVER_PID=$pid"
    echo "SERVER_PORT=$port"
    ;;
  stop)
    [[ $# -eq 3 ]] || fail "usage: $0 stop PID LOG"
    pid=$2
    log=$3
    kill -TERM "$pid"
    for _ in $(seq 1 100); do
      gone "$pid" && break
      sleep 0.2
    done
    gone "$pid" || fail "server $pid still running 20 s after SIGTERM"
    grep -q '^shutdown complete$' "$log" || fail "no graceful shutdown"
    ;;
  *)
    fail "usage: $0 start LOG CMD... | stop PID LOG"
    ;;
esac
