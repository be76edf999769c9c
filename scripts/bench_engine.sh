#!/bin/sh
# Regenerates BENCH_engine.json from the engine + sense benchmark suite.
#
# Usage: scripts/bench_engine.sh [output.json]
#   BENCH_NOTE="..."    prose note recorded in the file (optional)
#   BENCHTIME=3x        -benchtime passed to go test (optional)
#
# The file records the machine context (nproc, GOMAXPROCS, CPU model) so
# the multicore speedup curve the ROADMAP asks for can be told apart from
# single-CPU container runs at a glance.
set -eu

out=${1:-BENCH_engine.json}
benchtime=${BENCHTIME:-3x}
pattern='BenchmarkEngine|BenchmarkArtifactCodec|BenchmarkSenseAndRestore|BenchmarkSenseColdRows|BenchmarkProfileCompute|BenchmarkQuery'
command="go test -run '^\$' -bench '$pattern' -benchtime $benchtime -benchmem ./..."

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem ./... | tee "$tmp"

nproc_val=$(nproc 2>/dev/null || echo 1)
goversion=$(go env GOVERSION)
goos=$(go env GOOS)
goarch=$(go env GOARCH)
cpu=$(awk -F': ' '/model name/{print $2; exit}' /proc/cpuinfo 2>/dev/null || echo unknown)
date_val=$(date +%F)

# JSON-escape the free-text fields (backslashes and double quotes). They
# reach awk via ENVIRON, not -v, because -v reinterprets backslash
# escapes and would undo the escaping.
json_escape() { printf '%s' "$1" | sed 's/\\/\\\\/g; s/"/\\"/g'; }
CPU_ESC=$(json_escape "$cpu")
NOTE_ESC=$(json_escape "${BENCH_NOTE:-}")
export CPU_ESC NOTE_ESC

awk -v nproc="$nproc_val" -v goversion="$goversion" -v goos="$goos" \
    -v goarch="$goarch" -v date="$date_val" \
    -v benchtime="$benchtime" -v command="$command" '
BEGIN { cpu = ENVIRON["CPU_ESC"]; note = ENVIRON["NOTE_ESC"] }
/^Benchmark/ && NF >= 4 {
	name = $1
	sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
	# Drop the "<x> MB/s" pair that benchmarks calling SetBytes print.
	if ($6 == "MB/s") {
		for (i = 5; i <= NF - 2; i++)
			$i = $(i + 2)
		NF -= 2
	}
	# With -benchmem the line carries "<B> B/op  <allocs> allocs/op";
	# record both so the 0-allocs-per-probe invariant is machine-checkable
	# from the JSON, not just test-asserted.
	if (NF >= 8 && $6 == "B/op" && $8 == "allocs/op")
		entries[++n] = sprintf("    { \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %d, \"b_per_op\": %s, \"allocs_per_op\": %s }", name, $2, $3, $5, $7)
	else
		entries[++n] = sprintf("    { \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %d }", name, $2, $3)
}
END {
	printf "{\n"
	printf "  \"suite\": \"engine\",\n"
	printf "  \"date\": \"%s\",\n", date
	printf "  \"go\": \"%s\",\n", goversion
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"cpu\": \"%s\",\n", cpu
	printf "  \"nproc\": %s,\n", nproc
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"command\": \"%s\",\n", command
	printf "  \"note\": \"%s\",\n", note
	printf "  \"benchmarks\": [\n"
	for (i = 1; i <= n; i++)
		printf "%s%s\n", entries[i], (i < n ? "," : "")
	printf "  ]\n}\n"
}' "$tmp" > "$out"

echo "wrote $out (nproc=$nproc_val)"
