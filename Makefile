# Local and CI entry points. CI (.github/workflows/ci.yml) invokes these
# same targets, so a green `make ci` locally means a green pipeline.

GO ?= go

.PHONY: build test bench bench-engine bench-scaling bench-query lint smoke paper-smoke torture ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# One-iteration pass over every benchmark: a smoke test that the bench
# harness still runs, not a measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The engine + sense + codec baselines: runs the suite and regenerates
# BENCH_engine.json, recording nproc/GOMAXPROCS so multicore captures are
# distinguishable from single-CPU container runs. Set BENCH_NOTE to
# describe the refresh.
bench-engine:
	sh scripts/bench_engine.sh

# The multicore scaling curve: chipscan-stream + sweep + contention
# benchmarks at GOMAXPROCS in {1,2,4,8} clamped to nproc, regenerating
# BENCH_scaling.json (schema in scripts/README.md).
bench-scaling:
	sh scripts/bench_scaling.sh

# The serving data plane's latency budget + ingest throughput:
# open-loop loadgen over the mixed endpoint set and the incremental-vs-
# full-rebuild ingest benchmark, regenerating BENCH_query.json (schema
# in scripts/README.md). Set BENCH_NOTE to describe the refresh.
bench-query:
	sh scripts/bench_query.sh

# Sharded-fleet smoke, byte-comparing sharded-vs-single-process output
# for two registry experiments (the distributable-fleet contract):
#
#   1. the multichip fleet scan (`characterize -experiment multichip`,
#      exported by region): a 32-seed scan, 4 chips at a time, once in a
#      single process and once as four serialized seed-range shards
#      plus a `characterize merge`.
#   2. rowpress (a newly lifted point-axis driver): once in a single
#      process under the default queue planner and once as two job-slice
#      shards under the weighted planner, merged through the generic
#      `characterize merge` with a shard glob — pinning that neither
#      sharding nor planner choice changes the artifacts.
#   3. the fleet control plane: the same rowpress study through
#      `characterize fleet` with 2 shard workers, with worker 0 killed
#      (-kill-after 0:1) after its first journaled chunk so the retry
#      resumes it from the journal — CSV, JSON and artifact must still
#      byte-match the single-process run from step 2 (DESIGN.md §10).
SMOKE_DIR := .smoke

smoke:
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/characterize -experiment multichip -seeds 32 -rows 2 -parallel 4 \
		-group-by region -csv $(SMOKE_DIR)/single.csv -json $(SMOKE_DIR)/single.json
	for i in 0 1 2 3; do \
		$(GO) run ./cmd/characterize -experiment multichip -seeds 32 -rows 2 -parallel 4 \
			-shard $$i/4 -artifact $(SMOKE_DIR)/shard$$i.json >/dev/null || exit 1; \
	done
	$(GO) run ./cmd/characterize merge -group-by region -csv $(SMOKE_DIR)/merged.csv \
		-json $(SMOKE_DIR)/merged.json '$(SMOKE_DIR)/shard*.json'
	cmp $(SMOKE_DIR)/single.csv $(SMOKE_DIR)/merged.csv
	cmp $(SMOKE_DIR)/single.json $(SMOKE_DIR)/merged.json
	# smoke-parallel: the same 32-seed scan flat-out at one chip per CPU
	# (at least 8 so goroutines really interleave on small CI boxes) with
	# mutex profiling armed; byte-compare against the serial run so both
	# parallel nondeterminism and dead mutex profiling fail the smoke.
	p=$$(nproc); [ "$$p" -lt 8 ] && p=8; \
	$(GO) run ./cmd/characterize -experiment multichip -seeds 32 -rows 2 -parallel $$p \
		-mutexprofile $(SMOKE_DIR)/multichip-mutex.pprof -group-by region \
		-csv $(SMOKE_DIR)/parallel.csv -json $(SMOKE_DIR)/parallel.json >/dev/null
	cmp $(SMOKE_DIR)/single.csv $(SMOKE_DIR)/parallel.csv
	cmp $(SMOKE_DIR)/single.json $(SMOKE_DIR)/parallel.json
	test -s $(SMOKE_DIR)/multichip-mutex.pprof
	$(GO) run ./cmd/characterize -experiment rowpress -rows 2 -hammers 60000 \
		-csv $(SMOKE_DIR)/press.csv -json $(SMOKE_DIR)/press.json \
		-artifact $(SMOKE_DIR)/press.bin
	for i in 0 1; do \
		$(GO) run ./cmd/characterize -experiment rowpress -rows 2 -hammers 60000 \
			-planner weighted -shard $$i/2 \
			-artifact $(SMOKE_DIR)/press-shard$$i.json >/dev/null || exit 1; \
	done
	$(GO) run ./cmd/characterize merge -csv $(SMOKE_DIR)/press-merged.csv \
		-json $(SMOKE_DIR)/press-merged.json \
		-artifact $(SMOKE_DIR)/press-merged.bin \
		'$(SMOKE_DIR)/press-shard*.json'
	cmp $(SMOKE_DIR)/press.csv $(SMOKE_DIR)/press-merged.csv
	cmp $(SMOKE_DIR)/press.json $(SMOKE_DIR)/press-merged.json
	cmp $(SMOKE_DIR)/press.bin $(SMOKE_DIR)/press-merged.bin
	$(GO) run ./cmd/characterize fleet -experiment rowpress -rows 2 -hammers 60000 \
		-workers 2 -kill-after 0:1 -dir $(SMOKE_DIR)/fleet -progress \
		-csv $(SMOKE_DIR)/fleet.csv -json $(SMOKE_DIR)/fleet.json \
		-artifact $(SMOKE_DIR)/fleet.bin >/dev/null
	cmp $(SMOKE_DIR)/press.csv $(SMOKE_DIR)/fleet.csv
	cmp $(SMOKE_DIR)/press.json $(SMOKE_DIR)/fleet.json
	cmp $(SMOKE_DIR)/press.bin $(SMOKE_DIR)/fleet.bin
	$(GO) run ./cmd/resultsd -store $(SMOKE_DIR)/store -quiet \
		-query '/v1/summary' '$(SMOKE_DIR)/fleet/shard-*.json' \
		> $(SMOKE_DIR)/store.json
	cmp $(SMOKE_DIR)/press.json $(SMOKE_DIR)/store.json
	$(GO) run ./cmd/resultsd -store $(SMOKE_DIR)/store -quiet \
		-query '/v1/csv' > $(SMOKE_DIR)/store.csv
	cmp $(SMOKE_DIR)/press.csv $(SMOKE_DIR)/store.csv
	# Race-instrumented kill/resume + stall/retry: the fleet recovery
	# paths under the race detector, beyond what -kill-after above covers.
	$(GO) test -race -count=1 \
		-run 'TestFleetKillResumeByteIdentical|TestFleetStallKillsAndRetries' \
		./internal/fleet
	# Load-harness smoke against the store just built above: a fixed
	# closed-loop request count with the serving gates armed — zero
	# 4xx/5xx, warm-cache hit rate >= 0.9, and 304 revalidation
	# correctness (bodiless, only in answer to If-None-Match).
	$(GO) run ./cmd/loadgen -store $(SMOKE_DIR)/store -requests 400 \
		-concurrency 4 -gzip 0.25 -conditional 0.25 \
		-endpoints '/v1/summary,/v1/csv,/v1/render,/v1/artifact' \
		-check-304 -min-hit-rate 0.9 -max-5xx 0 -max-4xx 0
	rm -rf $(SMOKE_DIR)

# Crash-consistency torture: every registered failpoint site armed in
# turn against a full fleet → store-ingest → query cycle — workers
# killed mid-fsync, writes torn at a byte offset, spawns refused,
# renders poisoned — with the recovered outputs byte-compared to a
# fault-free run (DESIGN.md §13). Race-instrumented; a few seconds.
torture:
	$(GO) test -race -count=1 -run TestTortureAllSites -v ./internal/torture

# Reduced-budget paper suite on the paper-geometry chip: the nightly CI
# smoke (sweep + fig6 + trrstudy through the registry; ~5 s).
paper-smoke:
	$(GO) run ./cmd/characterize -chip paper -experiment paper \
		-rows 2 -bankrows 2 -hammers 30000 -iterations 60 -parallel 2

lint:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...

ci: lint build test smoke
