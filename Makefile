# Local and CI entry points. CI (.github/workflows/ci.yml) invokes these
# same targets, so a green `make ci` locally means a green pipeline.

GO ?= go

.PHONY: build test test-386 engine-stress bench bench-check golden-check lint smoke paper-smoke torture ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# The tests on a 32-bit target, where int is 32 bits, so a 64-bit count
# narrowed to int fails there. A 386 binary runs natively on an amd64
# host. The bench module stays amd64-only: it does not build for 386.
test-386:
	GOARCH=386 $(GO) test ./...

# The engine's ordered fold and device pool under the race detector at
# GOMAXPROCS 1, 2 and 8, ten times each, so the fold's wake, park and
# abort paths interleave in many schedules (~11 s on 2 cores).
engine-stress:
	$(GO) test -race -count=10 -cpu 1,2,8 -run 'Reduce|Pool' ./internal/engine

# One-iteration pass over every benchmark: a smoke test that the bench
# harness still runs, not a measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The end-to-end regression check (bench/README.md): the parent commit,
# checked out in a worktree under .bench_check/, and this tree each run
# the five-workload benchmark three times, alternating so drift on the
# machine lands on both sides alike; fails when any pair's compare
# reports a regressed end-to-end metric (or a run fails its own checks).
bench-check:
	rm -rf .bench_check && git worktree prune && mkdir -p .bench_check
	git worktree add --detach .bench_check/parent HEAD~1
	for i in 1 2 3; do \
		(cd .bench_check/parent && bash bench/run.sh --out ../base$$i.json) || exit 1; \
		bash bench/run.sh --out .bench_check/change$$i.json || exit 1; \
	done
	status=0; for i in 1 2 3; do \
		bash bench/run.sh compare .bench_check/base$$i.json .bench_check/change$$i.json || status=1; \
	done; \
	git worktree remove --force .bench_check/parent; exit $$status

# Byte-identity of every benchmark input set: regenerate the study
# digests of all of them in-process (bench/README.md) and compare with the
# committed bench/golden.json. A bench run checks only its own seed's
# set; this checks all 64 (~26 s on 2 cores).
GOLDEN_OUT := .golden-check.json

golden-check:
	$(GO) -C bench run . golden > $(GOLDEN_OUT)
	cmp $(GOLDEN_OUT) bench/golden.json
	rm -f $(GOLDEN_OUT)

# Sharded-fleet smoke, byte-comparing sharded-vs-single-process output
# for two registry experiments (the distributable-fleet contract):
#
#   1. the multichip fleet scan (`characterize -experiment multichip`,
#      exported by region): a 32-seed scan, 4 chips at a time, once in a
#      single process and once as four serialized seed-range shards
#      plus a `characterize merge`. Then a scan sized to cross the
#      stream's exact→sketch boundary in the merge (128 seeds, 9 rows
#      per region: 288 samples per group in each of four shards, 1,152
#      merged, against the cutoff of 1,024): the single-process
#      artifact, the `characterize merge` artifact and the store's
#      /v1/artifact must byte-match, and a grep checks that the merged
#      artifact holds sketched streams and no shard does, so the step
#      fails if the sizes stop crossing.
#   2. rowpress (a newly lifted point-axis driver): once in a single
#      process under the default queue planner and once as two job-slice
#      shards under the weighted planner, merged through the generic
#      `characterize merge` with a shard glob — pinning that neither
#      sharding nor planner choice changes the artifacts.
#   3. the fleet control plane: the same rowpress study through
#      `characterize fleet` with 2 shard workers, every worker killed
#      after its first journaled chunk (-failpoints
#      'fleet/worker/chunk=kill@2': the kill fires on the second arrival
#      at the top of a chunk) so the retries resume them from their
#      journals — CSV, JSON and artifact must still byte-match the
#      single-process run from step 2 (DESIGN.md §10). Then the
#      benchmark's fleet-cycle shape: an 8-seed multichip scan on 2
#      workers at one job per chunk, every worker killed after its
#      second journaled chunk (kill@3); the artifact must byte-match the
#      single-process multichip run. A kill that never fires would pass
#      both cmps, so each step also greps the coordinator's -progress
#      log for every worker's death and relaunch.
#   4. the Figs. 3-6 studies (`-experiment sweep` and `-experiment
#      fig6`) at -parallel 1 and -parallel 4: the rendered figures on
#      stdout and the -artifact files, which carry the per-row and
#      per-bank records the figures draw, must byte-match. The small
#      hammer budget leaves some banks without a single flip, the case
#      the Fig. 6 scatter must skip rather than crash on.
#   5. the Section 5 studies: `characterize -experiment trrstudy` at a
#      non-default bank (-channel 2 -pc 1 -bank 1), once in a single
#      process and once through `characterize fleet` with one worker,
#      whose argv carries the bank; the artifacts must byte-match.
#      `-experiment utrrprobe` must run.
#   6. the other extension studies (tempsweep, crosschannel, trrbypass)
#      on the paper chip at a tiny budget, each given only the knobs it
#      reads (the registry refuses the others): once in a single process
#      and once as two job-slice shards plus a `characterize merge`; the
#      CSV and the artifact must byte-match.
#   7. every runnable example in examples/ (~0.6 s each) must exit 0, so
#      a library change that breaks one fails here.
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
	$(GO) run ./cmd/characterize -experiment multichip -seeds 128 -rows 9 -parallel 4 \
		-artifact $(SMOKE_DIR)/cross.bin >/dev/null
	for i in 0 1 2 3; do \
		$(GO) run ./cmd/characterize -experiment multichip -seeds 128 -rows 9 -parallel 4 \
			-shard $$i/4 -artifact $(SMOKE_DIR)/cross-shard$$i.json >/dev/null || exit 1; \
	done
	$(GO) run ./cmd/characterize merge -artifact $(SMOKE_DIR)/cross-merged.bin \
		'$(SMOKE_DIR)/cross-shard*.json' >/dev/null
	$(GO) run ./cmd/resultsd -store $(SMOKE_DIR)/cross-store -quiet \
		-query '/v1/artifact' '$(SMOKE_DIR)/cross-shard*.json' > $(SMOKE_DIR)/cross-store.bin
	cmp $(SMOKE_DIR)/cross.bin $(SMOKE_DIR)/cross-merged.bin
	cmp $(SMOKE_DIR)/cross.bin $(SMOKE_DIR)/cross-store.bin
	grep -q '"sketched": true' $(SMOKE_DIR)/cross-merged.bin
	! grep -q '"sketched": true' $(SMOKE_DIR)/cross-shard*.json
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
		-workers 2 -failpoints 'fleet/worker/chunk=kill@2' -dir $(SMOKE_DIR)/fleet -progress \
		-csv $(SMOKE_DIR)/fleet.csv -json $(SMOKE_DIR)/fleet.json \
		-artifact $(SMOKE_DIR)/fleet.bin >/dev/null 2>$(SMOKE_DIR)/fleet.log
	for i in 0 1; do \
		grep -q "worker $$i died (failpoint)" $(SMOKE_DIR)/fleet.log || exit 1; \
		grep -q "worker $$i: attempt 2" $(SMOKE_DIR)/fleet.log || exit 1; \
	done
	cmp $(SMOKE_DIR)/press.csv $(SMOKE_DIR)/fleet.csv
	cmp $(SMOKE_DIR)/press.json $(SMOKE_DIR)/fleet.json
	cmp $(SMOKE_DIR)/press.bin $(SMOKE_DIR)/fleet.bin
	$(GO) run ./cmd/characterize -experiment multichip -seeds 8 -rows 1 \
		-artifact $(SMOKE_DIR)/chips.bin >/dev/null
	$(GO) run ./cmd/characterize fleet -experiment multichip -seeds 8 -rows 1 \
		-workers 2 -chunk 1 -failpoints 'fleet/worker/chunk=kill@3' -dir $(SMOKE_DIR)/fleet-chips \
		-progress -artifact $(SMOKE_DIR)/fleet-chips.bin >/dev/null 2>$(SMOKE_DIR)/fleet-chips.log
	for i in 0 1; do \
		grep -q "worker $$i died (failpoint)" $(SMOKE_DIR)/fleet-chips.log || exit 1; \
		grep -q "worker $$i: attempt 2" $(SMOKE_DIR)/fleet-chips.log || exit 1; \
	done
	cmp $(SMOKE_DIR)/chips.bin $(SMOKE_DIR)/fleet-chips.bin
	$(GO) run ./cmd/resultsd -store $(SMOKE_DIR)/store -quiet \
		-query '/v1/summary' '$(SMOKE_DIR)/fleet/shard-*.json' \
		> $(SMOKE_DIR)/store.json
	cmp $(SMOKE_DIR)/press.json $(SMOKE_DIR)/store.json
	$(GO) run ./cmd/resultsd -store $(SMOKE_DIR)/store -quiet \
		-query '/v1/csv' > $(SMOKE_DIR)/store.csv
	cmp $(SMOKE_DIR)/press.csv $(SMOKE_DIR)/store.csv
	# The store's remaining views: /v1/render must answer 200 (-query
	# exits non-zero otherwise) and /v1/artifact must byte-match the
	# fleet's merged artifact.
	$(GO) run ./cmd/resultsd -store $(SMOKE_DIR)/store -quiet \
		-query '/v1/render' > $(SMOKE_DIR)/store-render.txt
	test -s $(SMOKE_DIR)/store-render.txt
	$(GO) run ./cmd/resultsd -store $(SMOKE_DIR)/store -quiet \
		-query '/v1/artifact' > $(SMOKE_DIR)/store.bin
	cmp $(SMOKE_DIR)/fleet.bin $(SMOKE_DIR)/store.bin
	# Race-instrumented kill/resume + stall/retry: the fleet recovery
	# paths under the race detector, beyond what the kills above cover.
	$(GO) test -race -count=1 \
		-run 'TestFleetKillResumeByteIdentical|TestFleetStallKillsAndRetries' \
		./internal/fleet
	for e in sweep fig6; do \
		for p in 1 4; do \
			$(GO) run ./cmd/characterize -experiment $$e -rows 2 -hammers 30000 \
				-parallel $$p > $(SMOKE_DIR)/$$e-p$$p.txt || exit 1; \
			$(GO) run ./cmd/characterize -experiment $$e -rows 2 -hammers 30000 \
				-parallel $$p -artifact $(SMOKE_DIR)/$$e-p$$p.json >/dev/null || exit 1; \
		done; \
		cmp $(SMOKE_DIR)/$$e-p1.txt $(SMOKE_DIR)/$$e-p4.txt || exit 1; \
		cmp $(SMOKE_DIR)/$$e-p1.json $(SMOKE_DIR)/$$e-p4.json || exit 1; \
	done
	$(GO) run ./cmd/characterize -experiment trrstudy -iterations 40 -channel 2 -pc 1 -bank 1 \
		-artifact $(SMOKE_DIR)/trrstudy.bin > $(SMOKE_DIR)/trrstudy.txt
	$(GO) run ./cmd/characterize fleet -experiment trrstudy -iterations 40 -channel 2 -pc 1 -bank 1 \
		-workers 1 -artifact $(SMOKE_DIR)/trrstudy-fleet.bin >/dev/null
	cmp $(SMOKE_DIR)/trrstudy.bin $(SMOKE_DIR)/trrstudy-fleet.bin
	$(GO) run ./cmd/characterize -experiment utrrprobe > $(SMOKE_DIR)/utrrprobe.txt
	for s in 'tempsweep -rows 1 -hammers 30000' 'crosschannel -rows 1' 'trrbypass -hammers 30000'; do \
		e=$${s%% *}; \
		$(GO) run ./cmd/characterize -experiment $$s -chip paper \
			-csv $(SMOKE_DIR)/$$e.csv -artifact $(SMOKE_DIR)/$$e.bin >/dev/null || exit 1; \
		for i in 0 1; do \
			$(GO) run ./cmd/characterize -experiment $$s -chip paper \
				-shard $$i/2 -artifact $(SMOKE_DIR)/$$e-shard$$i.json >/dev/null || exit 1; \
		done; \
		$(GO) run ./cmd/characterize merge -csv $(SMOKE_DIR)/$$e-merged.csv \
			-artifact $(SMOKE_DIR)/$$e-merged.bin "$(SMOKE_DIR)/$$e-shard*.json" >/dev/null || exit 1; \
		cmp $(SMOKE_DIR)/$$e.csv $(SMOKE_DIR)/$$e-merged.csv || exit 1; \
		cmp $(SMOKE_DIR)/$$e.bin $(SMOKE_DIR)/$$e-merged.bin || exit 1; \
	done
	for e in $$(ls examples); do \
		$(GO) run ./examples/$$e >/dev/null || exit 1; \
	done
	rm -rf $(SMOKE_DIR)

# Crash-consistency torture: every registered failpoint site armed in
# turn against a full fleet → store-ingest → query cycle — workers
# killed mid-fsync, writes torn at a byte offset, spawns refused,
# renders poisoned — with the recovered outputs byte-compared to a
# fault-free run (DESIGN.md §13). Race-instrumented; a few seconds.
torture:
	$(GO) test -race -count=1 -run TestTortureAllSites -v ./internal/torture

# Reduced-budget paper suite on the paper-geometry chip: the nightly CI
# smoke (sweep + fig6 + trrstudy through the registry, drawing Figs. 3-6
# and the Section 5 result; ~5 s). It fails unless the report ends in the
# paper-vs-measured table with one row, measured, per claim in
# internal/experiments/claims.go.
PAPER_OUT := .paper-smoke.txt

paper-smoke:
	$(GO) run ./cmd/characterize -chip paper -experiment paper \
		-rows 2 -bankrows 2 -hammers 30000 -iterations 60 -parallel 2 > $(PAPER_OUT)
	cat $(PAPER_OUT)
	grep -qx '| figure | metric | paper | measured |' $(PAPER_OUT)
	test "$$(grep -c '^| \(Fig\|Sec\)\. [0-9]* | [^|]* | [^|]* | [^ |][^|]* |$$' $(PAPER_OUT))" \
		-eq "$$(grep -c '{ID: "' internal/experiments/claims.go)"
	rm -f $(PAPER_OUT)

lint:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...

# The benchmark is its own module (bench/go.mod), which the root
# ./... patterns do not reach: vet and test it here so an internal API
# change cannot break it with every other check green.
ci: lint build test test-386 engine-stress smoke golden-check bench
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
