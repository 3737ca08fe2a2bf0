#!/usr/bin/env bash
# serve-smoke.sh — end-to-end integration check for scalana-serve.
#
# Builds the real binaries, starts the server over a fresh store,
# uploads the committed cg profile-set fixtures, queries a detect
# report, and diffs it against the offline `scalana-detect -json`
# output over the same files. Exercises the full wire contract:
# upload -> content-addressed store -> byte-identical retrieval ->
# served report identical to the one-shot CLI. Then uploads a second
# run at np=8 and checks GET /v1/watch against scalana-detect -watch
# over the same store — the streaming-regression byte-parity contract.
# Finally sends SIGTERM and requires a graceful exit with status 0.
#
# Usage: scripts/serve-smoke.sh [port]
set -euo pipefail

cd "$(dirname "$0")/.."
port="${1:-8135}"
addr="127.0.0.1:${port}"
work="$(mktemp -d)"
trap 'kill "${server_pid:-}" 2>/dev/null || true; rm -rf "$work"' EXIT

go build -o "$work/scalana-serve" ./cmd/scalana-serve
go build -o "$work/scalana-detect" ./cmd/scalana-detect
go build -o "$work/scalana-prof" ./cmd/scalana-prof

# Offline report via the legacy profiles-directory path.
mkdir -p "$work/profiles"
cp testdata/cg.4.json testdata/cg.8.json "$work/profiles/"
"$work/scalana-detect" -app cg -scales 4,8 -profiles "$work/profiles" \
  -json "$work/offline.json" >/dev/null

"$work/scalana-serve" -addr "$addr" -store "$work/store" -quiet &
server_pid=$!

for _ in $(seq 100); do
  if curl -fs "http://$addr/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fs "http://$addr/healthz" >/dev/null || { echo "server did not come up" >&2; exit 1; }

# Upload both fixtures; capture the second upload's content hash.
curl -fs --data-binary @testdata/cg.4.json "http://$addr/v1/profiles" >/dev/null
hash8=$(curl -fs --data-binary @testdata/cg.8.json "http://$addr/v1/profiles" \
  | sed -n 's/.*"hash": "\([0-9a-f]*\)".*/\1/p')

# Stored bytes must round-trip exactly.
curl -fs "http://$addr/v1/profiles/cg/8/$hash8" > "$work/roundtrip.json"
cmp testdata/cg.8.json "$work/roundtrip.json"

# The served detect report must match the offline CLI byte-for-byte.
curl -fs -X POST -d '{"app":"cg","scales":[4,8]}' "http://$addr/v1/detect" > "$work/served.json"
diff "$work/offline.json" "$work/served.json"
# A repeat reads its runs from the server's run cache: same bytes.
curl -fs -X POST -d '{"app":"cg","scales":[4,8]}' "http://$addr/v1/detect" > "$work/served-again.json"
cmp "$work/served.json" "$work/served-again.json"

# The store-backed CLI path reads the same store the server wrote.
"$work/scalana-detect" -app cg -scales 4,8 -store "$work/store" \
  -json "$work/cli-store.json" >/dev/null
diff "$work/offline.json" "$work/cli-store.json"

# Sweep comparison and stats respond.
curl -fs "http://$addr/v1/sweep?app=cg&scales=4,8" >/dev/null
curl -fs "http://$addr/v1/stats" >/dev/null

# --- watch mode: upload a second np=8 run, then score the newest run
# against the rolling baseline, served and offline, byte for byte.
"$work/scalana-prof" -app cg -np 8 -hz 500 -o "$work/cg.8b.json" >/dev/null
curl -fs --data-binary @"$work/cg.8b.json" "http://$addr/v1/profiles" >/dev/null
curl -fs -X POST -d '{"app":"cg"}' "http://$addr/v1/baseline" >/dev/null
curl -fs "http://$addr/v1/watch?app=cg&np=8&min-runs=1" > "$work/watch-served.json"

# scalana-detect -watch exits 2 when regressions are flagged — either
# outcome is fine here; only a real failure (exit 1) may kill the smoke.
watch_rc=0
"$work/scalana-detect" -app cg -store "$work/store" -watch -np 8 -min-runs 1 \
  -json "$work/watch-cli.json" >/dev/null || watch_rc=$?
if [ "$watch_rc" -ne 0 ] && [ "$watch_rc" -ne 2 ]; then
  echo "scalana-detect -watch failed with exit $watch_rc" >&2
  exit 1
fi
diff "$work/watch-served.json" "$work/watch-cli.json"

# Identical repeated requests must serve identical bytes.
curl -fs "http://$addr/v1/watch?app=cg&np=8&min-runs=1" > "$work/watch-again.json"
cmp "$work/watch-served.json" "$work/watch-again.json"

# SIGTERM drains in-flight requests and exits 0.
kill "$server_pid"
server_rc=0
wait "$server_pid" || server_rc=$?
server_pid=
if [ "$server_rc" -ne 0 ]; then
  echo "scalana-serve exited $server_rc on SIGTERM, want 0 (graceful shutdown)" >&2
  exit 1
fi
echo "serve-smoke: OK (served detect and watch reports byte-identical to offline scalana-detect; clean shutdown)"
