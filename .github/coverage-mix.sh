#!/usr/bin/env bash
# coverage-mix.sh — what production actually runs.
#
# Cover-builds every main (cmd/*, examples/*, and the nested perfbench
# module), drives them with the production mix below, and lists every
# function under maia/... that no run reached. Non-error code in that
# list is a deletion candidate: a reachable-looking path that no priced
# point, request or benchmark runs.
#
# Run from the repository root:
#
#   bash .github/coverage-mix.sh [OUT]
#
# OUT (default /tmp/maia-cover) receives bin/, cov/ (GOCOVERDIR),
# cover.txt (merged text profile), func.txt (per-function coverage) and
# unreached.txt (the 0.0 % functions). Inspect branches inside a
# partly-reached function with `go tool cover -html=OUT/cover.txt`.
# Takes about a minute on 2 CPUs.
set -euo pipefail

root=$(pwd)
out=${1:-/tmp/maia-cover}
bin=$out/bin
rm -rf "$out"
mkdir -p "$bin" "$out/cov" "$out/run"
export GOCOVERDIR=$out/cov

go build -cover -coverpkg=./... -o "$bin/" ./cmd/... ./examples/...
(cd perfbench && go build -cover -coverpkg=maia/... -o "$bin/perfbench" .)

plans="degraded lossy-pcie phi-straggler phi0-down thermal-throttle"
mb=$bin/maiabench
cd "$out/run" # trace files land here; -verify uses the embedded goldens
quiet() { "$@" >/dev/null; }

# maiabench: the suite in every mode maiad and the CLI expose.
quiet "$mb" -parallel 1 all
quiet "$mb" -quick all
quiet env MAIA_NO_FASTPATH=1 "$mb" -quick all
quiet "$mb" -verify all
quiet "$mb" -trace t.json -trace-summary -stats fig10 fig16 fig20 fig25 ext-tasks
quiet "$mb" -nodes 4 -trace rack.json ext-rack-npb ext-rack-overflow
for p in $plans; do
	quiet "$mb" -faults "$p" all
	quiet "$mb" -nodes 2 -faults "$p" ext-rack-npb ext-rack-overflow
done
quiet "$mb" -nodes 4 ext-rack-npb ext-rack-overflow
for s in least-loaded random round-robin; do
	quiet "$mb" -fleet 8 -scheduler "$s" -seed 3 ext-fleet-mtbf ext-fleet-recovery
done
quiet env MAIA_NO_FASTPATH=1 "$mb" -parallel 1 fig11 fig12 fig13 fig14 fig20 fig21 fig22 fig23 fig25
quiet env MAIA_NO_FASTPATH=1 "$mb" -nodes 4 ext-rack-npb ext-rack-overflow
quiet "$mb" -list

# npbrun, maiainfo and the examples.
quiet "$bin/npbrun"
quiet "$bin/npbrun" -mpi 2
quiet "$bin/npbrun" -mpi 4 -class W
quiet "$bin/npbrun" -faults degraded
quiet "$bin/maiainfo"
for e in cfd distributed npbsweep offload quickstart; do
	quiet "$bin/$e"
done

# maiad: every route, hits and misses, lookups and traced jobs.
addr=127.0.0.1:8759
"$bin/maiad" -addr "$addr" -golden "$root/internal/harness/testdata/golden" 2>"$out/maiad.log" &
pid=$!
for _ in $(seq 50); do curl -sf "http://$addr/healthz" >/dev/null && break; sleep 0.1; done
post() { curl -s -o /dev/null -X POST "http://$addr$1" -d "$2"; }
post /v1/jobs '{"experiment":"fig4"}'
post /v1/jobs '{"experiment":"fig11","quick":true,"model":{"cache_capture":0}}'
post /v1/jobs '{"experiment":"ext-rack-npb","nodes":4,"fault_plan":"lossy-pcie","seed":7}'
post '/v1/jobs?trace=summary' '{"experiment":"fig13","quick":true}'
post '/v1/jobs?trace=chrome' '{"experiment":"fig20","quick":true}'
post /v1/jobs '{"experiment":"nope"}'
post /v1/sweeps '{"specs":[{"experiment":"fig7","quick":true},{"experiment":"fig7","quick":true},{"experiment":"fig12","quick":true}]}'
post /v1/fleet '{"experiment":"ext-fleet-mtbf"}'
post /v1/fleet '{"experiment":"ext-fleet-recovery","fleet":{"nodes":8,"scheduler":"random"},"seed":5}'
key=$(curl -s "http://$addr/v1/experiments" | python3 -c 'import json,sys; d=json.load(sys.stdin); print(d[0]["default_key"])' 2>/dev/null || true)
curl -s -o /dev/null "http://$addr/v1/jobs/$key"
curl -s -o /dev/null "http://$addr/v1/jobs/0000"
fkey=$(curl -s -X POST "http://$addr/v1/fleet" -d '{"experiment":"ext-fleet-mtbf"}' | python3 -c 'import json,sys; print(json.load(sys.stdin)["key"])' 2>/dev/null || true)
curl -s -o /dev/null "http://$addr/v1/fleet/$fkey"
curl -s -o /dev/null "http://$addr/metrics"
curl -s -o /dev/null "http://$addr/metrics?format=json"
kill -TERM "$pid"
wait "$pid" || true

# perfbench: all three phases and the per-layer metrics, against a
# cover-built maiad.
(cd "$root" && "$bin/perfbench" --maiad "$bin/maiad" --workload serve-cold --seed 1 --seconds 4 --trace 1 >/dev/null)

cd "$root"
go tool covdata textfmt -i="$GOCOVERDIR" -o "$out/cover.txt"
go tool covdata percent -i="$GOCOVERDIR" | grep -v 'maia/perfbench' >"$out/percent.txt" || true
# perfbench's own package lives in the nested module; cover -func
# resolves source files from the root module, so leave it out.
grep -v '^maia/perfbench/' "$out/cover.txt" >"$out/cover-root.txt"
go tool cover -func="$out/cover-root.txt" >"$out/func.txt"
awk '$NF == "0.0%"' "$out/func.txt" >"$out/unreached.txt"
tail -1 "$out/func.txt"
echo "unreached functions: $(wc -l <"$out/unreached.txt") (see $out/unreached.txt)"
