# Repro of conf_ipps_GillEKA0G25 (MeanCache) grown toward a production
# serving system. `make check` is the gate CI runs.

GO ?= go

.PHONY: build check test race vet bench bench-e2e loadtest \
	loadtest-fl conformance fuzz-smoke loadtest-ann loadtest-cluster \
	loadtest-overload loadtest-hotspot crashtest gates sim clean

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite, so CI's check job
# (make vet build test) enforces formatting.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# race runs the suites with concurrency surface under the race detector;
# the experiment-replay suites are single-goroutine and slow, so they are
# covered by `test` instead.
race:
	$(GO) test -race ./internal/core/ ./internal/server/ ./internal/cache/ \
		./internal/store/... ./internal/fl/ ./internal/flserve/ ./internal/llmsim/ \
		./internal/index/ ./internal/cluster/ ./internal/obs/ ./internal/resilience/ \
		./internal/sim/ ./internal/sim/scenario/ ./internal/stack/

check: vet build test race

# conformance runs the cross-index property suite (Flat, IVF, HNSW,
# Adaptive against a brute-force oracle) twice under the race detector.
conformance:
	$(GO) test -run Conformance -count=2 -race ./internal/index/...

# fuzz-smoke is the nightly-style fuzz check: 30s of randomized
# Add/Remove/Search programs checked for exact Flat parity and HNSW
# result invariants, 30s of the same programs with batched searches
# checked for exact MultiSearch-vs-sequential parity, 30s of arbitrary
# bytes against the cluster wire codec (no panics, no over-allocation,
# canonical round trips), 30s of fuzzer-shaped churn storms through
# the deterministic cluster simulation (no panics, every safety
# invariant holds at settle), and 30s of arbitrary bytes against the
# persisted entry codec, binary and legacy gob (no panics, whatever
# decodes re-encodes to the same entry).
fuzz-smoke:
	$(GO) test -fuzz=FuzzSearchParity -fuzztime=30s -run xxx ./internal/index/
	$(GO) test -fuzz=FuzzMultiSearchParity -fuzztime=30s -run xxx ./internal/index/
	$(GO) test -fuzz=FuzzWireCodec -fuzztime=30s -run xxx ./internal/cluster/
	$(GO) test -fuzz=FuzzSimScenario -fuzztime=30s -run xxx ./internal/sim/scenario/
	$(GO) test -fuzz=FuzzDecodeEntry -fuzztime=30s -run xxx ./internal/cache/

# sim is the deterministic-simulation gate: the virtual-clock and
# simulated-network engine suites, the 100k-tenant churn-storm
# determinism gate (same seed ⇒ bit-identical trace digest, different
# seed diverges, < 30s wall), the randomized-churn property suite, and
# the virtual-time runs of the production cluster Node.
sim:
	$(GO) test -count=1 ./internal/sim/ ./internal/sim/scenario/
	$(GO) test -count=1 -run TestVirtualTime ./internal/cluster/

# bench runs every benchmark in the repo (paper replays at the root,
# micro-benchmarks in the internal packages).
bench:
	$(GO) test -bench . -benchmem -run xxx ./...

# bench-e2e is the end-to-end benchmark BENCHMARK.json declares: the
# shipped cacheserve as a subprocess under four traffic mixes, plus a
# traced in-process replay for the per-layer ledger (bench/README.md
# defines every metric). Run from the repo root; ~2 min.
bench-e2e:
	$(GO) run ./bench -seed 7 -out bin/bench/result.json

# loadtest reproduces the serving acceptance run: cacheserve (race-built,
# in-process virtual-time upstream) driven by loadgen with 100 users and
# 1200 measured probes.
loadtest:
	$(GO) build -race -o bin/cacheserve ./cmd/cacheserve
	$(GO) build -race -o bin/loadgen ./cmd/loadgen
	rm -rf bin/tenants
	./bin/cacheserve -addr 127.0.0.1:18090 -max-tenants 64 -persist-dir bin/tenants & \
		srv=$$!; sleep 1; \
		./bin/loadgen -addr 127.0.0.1:18090 -users 100 -cached 8 -probes 12 -concurrency 32 -accept; \
		rc=$$?; kill -INT $$srv; wait $$srv; exit $$rc

# loadtest-fl is the online federated-learning acceptance run: 50 live
# tenants train the global encoder and τ across 3 rounds between serving
# phases, under the race detector, reporting the hit-ratio/F1 trajectory
# against the frozen-model baseline.
loadtest-fl:
	$(GO) build -race -o bin/cacheserve ./cmd/cacheserve
	$(GO) build -race -o bin/loadgen ./cmd/loadgen
	./bin/cacheserve -addr 127.0.0.1:18091 -fl & \
		srv=$$!; sleep 2; \
		./bin/loadgen -addr 127.0.0.1:18091 -users 50 -cached 8 -probes 12 -fl 3 -accept; \
		rc=$$?; kill -INT $$srv; wait $$srv; exit $$rc

# loadtest-ann is the large-cache ANN acceptance run: 200k entries per
# tenant index, HNSW must beat the exact Flat scan ≥5× at recall@10
# ≥ 0.95 (build takes a minute or two; the gate is enforced by exit code).
loadtest-ann:
	$(GO) run ./cmd/loadgen -scenario ann -ann-queries 300 -accept

# loadtest-cluster is the failover acceptance run: the ring property
# tests prove the balance and minimal-movement bounds, then a 3-node
# in-process cluster (shared persist dir, virtual-time upstream) takes
# an abrupt node kill mid-run and must finish with zero request errors,
# zero lost tenants, and ≥90% duplicate-hit-rate retention.
loadtest-cluster:
	$(GO) test -run 'TestRingBalance|TestRingMinimalMovement' -count=1 ./internal/cluster/
	$(GO) run ./cmd/loadgen -scenario cluster -users 80 -cached 6 -probes 12 \
		-dup 0.4 -concurrency 24 -accept

# loadtest-overload is the degraded-serving acceptance run: an in-process
# cacheserve stack (resilience governor, guarded llmsim upstream in real
# sleep mode) takes an upstream brown-out and then a full outage at ≥10×
# offered load, and must keep serving from cache: served throughput ≥90%
# of healthy capacity, hit-path p99 under 5× the unloaded p99, the AIMD
# limiter sheds the brown-out overflow, and the circuit breaker trips to
# cache-only serving and re-closes after the upstream heals (asserted
# via /metrics). Zero panics or unexpected statuses anywhere.
loadtest-overload:
	$(GO) run ./cmd/loadgen -scenario overload -users 60 -cached 6 -probes 10 \
		-concurrency 16 -accept

# loadtest-hotspot is the search-batching acceptance run: Zipf-skewed
# traffic hammers one hot tenant through two in-process stacks, the
# shipped one and one without the per-tenant search batcher, taking
# turns at 500-probe slices of one probe stream (4000 fresh probes, then
# the same probes four more times, when all of them hit). Duplicate hits
# of the fresh pass must match across the stacks (end-to-end MultiSearch
# parity), and the batched hit-path p99 must not exceed 1.10× the
# unbatched one (the shipped batcher costs a hot tenant nothing), where
# each side's figure is the median of its 32 replay slices' hit-RTT
# p99s, not one p99 pooled over the run (the allowance absorbs scheduler
# noise on shared runners); the 90th percentile of the slice p99s is held
# to 1.5×, so a stall that comes in bursts fails too. How many searches
# coalesced is a report line: with no gather window that is up to the
# scheduler, and internal/server's exact-count tests pin it instead.
loadtest-hotspot:
	$(GO) run ./cmd/loadgen -scenario hotspot -accept

# crashtest is the crash-consistency acceptance run: a real cacheserve
# process over one persist dir is SIGKILLed mid-traffic 21 times (plus 5
# clean shutdowns that flush and mark tenants durably synced), with one
# deliberately corrupted snapshot injected while the server is down.
# The gate: every restart comes up healthy, no tenant whose state was
# durably synced ever loses its canonical entry, the corrupted snapshot
# is quarantined and served cold (never crashed on), and zero request
# errors land outside kill windows.
crashtest:
	$(GO) build -o bin/cacheserve ./cmd/cacheserve
	$(GO) build -o bin/loadgen ./cmd/loadgen
	rm -rf bin/crashtenants
	./bin/loadgen -scenario crash -crash-bin ./bin/cacheserve \
		-crash-dir bin/crashtenants -concurrency 16 -accept

# gates runs every loadgen acceptance target in sequence (never in
# parallel: several gates compare latencies) and prints one summary line
# per target; it fails if any target failed. 23 gate lines in all (24
# until hotspot's coalescing line became a report line). Full logs land
# in bin/gates/.
GATES = loadtest loadtest-fl loadtest-ann loadtest-cluster loadtest-overload \
	loadtest-hotspot crashtest
gates:
	@mkdir -p bin/gates; failed=0; summary=; \
	for t in $(GATES); do \
		echo "=== make $$t"; start=$$(date +%s); \
		if $(MAKE) --no-print-directory $$t > bin/gates/$$t.log 2>&1; then verdict=PASS; else verdict=FAIL; failed=1; fi; \
		grep -E '^(PASS|FAIL|ACCEPT) ' bin/gates/$$t.log; \
		summary="$$summary$$(printf '%-18s %s  %2d gates  %4ds' $$t $$verdict \
			$$(grep -cE '^(PASS|FAIL) ' bin/gates/$$t.log) $$(( $$(date +%s) - start )))\n"; \
	done; \
	printf "\n=== gates summary\n$$summary"; exit $$failed

clean:
	rm -rf bin
