# Development targets. CI (.github/workflows/ci.yml) runs exactly
# these, so a green `make check` locally means a green pipeline.

GO ?= go

.PHONY: build test race concurrency-gate e2e-bench shard-stress bench vet fmt fmt-write chaos chaos-federation cluster-smoke obs stats-demo fuzz-smoke check

build:
	$(GO) build ./...

# -timeout is per package: a hang (a snapshot left open while its
# goroutine writes, a notifier that never drains) costs two minutes
# with every stack printed, not the ten-minute default.
test:
	$(GO) test -timeout 120s ./...

race:
	$(GO) test -race -timeout 120s ./...

# The tests that have actually flaked or hung (ROADMAP item 0), twenty
# times each under the race detector: the serial-vs-batch notifications
# and history (needs the Quiesce barrier), the batch whose stored
# readings notify several objects without cutting a snapshot, the exit
# checks (the held index against the scan of every subscription; a
# return after expiry is an entry), the one queue's delivery in
# evaluation order across a room and its floor, every firing after
# Close either delivered or counted as dropped, the
# cache-freshness stress that used to hang in Snapshot, the three tests
# of the cut itself (every concurrent cut fresh, a prefix of each
# batch's stripe groups, a walking object seen once, and returning; a
# cut waiting for a stripe write lock held mid-store and a writer
# waiting behind the open cut; no cut tearing a single-object batch),
# the replay dedup never missing a stored row while the object flips
# floors, and every TestResilientSink* test of the adapter's
# buffering sink (one hung a race run while the drain slept out a
# breaker cooldown), including its account of every reading while a
# delivery is in flight. The gate gets its own, longer timeout: a
# slower runner must not turn the flake gate into a timeout flake.
concurrency-gate:
	$(GO) test -race -count=20 -timeout 300s -run 'TestIngestBatchMatchesSerialIngest|TestIngestBatchCutsNoSnapshot|TestCacheNeverServesStaleUnderRace|TestHeldIndexMatchesSubscriptionScan|TestReturnAfterExpiryIsAnEntry|TestNotifierDeliversInEvaluationOrder|TestCloseAccountsForEveryNotification' ./internal/core/
	$(GO) test -race -count=20 -timeout 300s -run 'TestConcurrentCutsFreshWholeAndReturn|TestCutWaitsForOpenBracket|TestCutConcurrentIngestNeverTorn|TestHasReadingNeverMissesDuringFloorFlips' ./internal/spatialdb/
	$(GO) test -race -count=20 -timeout 300s -run 'TestResilientSink' ./internal/adapter/

# The through-the-wire benchmark BENCHMARK.json declares, exactly as
# the driver runs it (benchmark/README.md); arguments via ARGS, e.g.
#   make e2e-bench ARGS='--workload notify-city --seed 3'
e2e-bench:
	bash benchmark/run.sh $(ARGS)

# Striping/snapshot stress suite: the per-stripe routing and stats, an
# object changing floors (TestFloorMigration*), the rows a trigger
# firing holds (TestShardFiringRows*), snapshot-isolation, cut (TestCut*:
# torn batches, a cut waiting for a stripe write lock and a writer
# waiting for the cut), support-index (TestSupport*: the support trees
# hold per-object records that floor changes, import, drop and prune
# edit) and the object-query
# tests beside object inserts and deletes (TestCrossShard*: the one
# object table read while it is written), plus core's serial-vs-parallel region scan and its scans
# beside batched ingest and floor flips, under the race
# detector, twice, so interleavings differ between runs. Kept separate
# from `race` so CI can re-run just these when the spatial database
# changes.
shard-stress:
	$(GO) test -race -count=2 -run 'TestShard|TestSnapshot|TestCut|TestSupport|TestFloorMigration|TestCrossShard' ./internal/spatialdb/
	$(GO) test -race -count=2 -run 'TestObjectsInRegionSerialParallelIdentical|TestRegionScanDuringIngestAndMigration' ./internal/core/

# One iteration per benchmark: a smoke run that keeps every testing.B
# benchmark compiling and executable without burning CI minutes.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

vet:
	$(GO) vet ./...

# Fuzz smoke: every wire-protocol decode surface, and the fusion
# kernel ProbRegion, fuzzes for FUZZTIME from its seed corpus
# (internal/*/testdata/fuzz/). `go test -fuzz` takes exactly one target
# per invocation, hence the list. A malformed frame must error — never
# panic, over-read, or accept a payload past the frame cap; ProbRegion
# must return a probability that matches its log-space reference.
# Regenerate the wire seed corpora after a wire change with:
#   MW_WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/mwrpc ./internal/remote
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME) ./internal/mwrpc
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReadings$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStreamAck$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNotification$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeIngestReply$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRegionQuery$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeQueryReplies$$' -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run '^$$' -fuzz '^FuzzProbRegion$$' -fuzztime $(FUZZTIME) ./internal/fusion

# Fault-injection suite: the faultnet harness plus the chaos tests
# that drive the remote stack through it, under the race detector.
chaos:
	$(GO) test -race -count=1 ./internal/faultnet/
	$(GO) test -race -count=1 -run '^TestChaos' -v ./internal/remote/

# Multi-daemon federation chaos: a registry plus three floor daemons,
# with kills and restarts landing mid-migration and mid-query. The
# suite (plus the rest of the fed package's migration/degraded-read
# tests) runs twice under the race detector so interleavings differ;
# it asserts no reading is lost or duplicated, per-object epochs never
# regress, and every scan is either complete or explicitly partial.
chaos-federation:
	$(GO) test -race -count=2 -run '^TestChaos' -v ./internal/fed/
	$(GO) test -race -count=1 ./internal/fed/ ./internal/faultnet/
	$(MAKE) cluster-smoke

# Two-daemon cluster-stats smoke: a registry (with /metrics/cluster)
# plus two floor daemons of a two-storey building. A reading ingested
# at cs-0 for cs-1's floor must forward, `mwctl stats -cluster` must
# scrape both daemons and show the federation counters, and `mwctl
# trace -cluster` must render the stitched cross-daemon trace.
cluster-smoke:
	@$(GO) build -o /tmp/mw-reg ./cmd/mwregistry
	@$(GO) build -o /tmp/mw-fed ./cmd/middlewhere
	@$(GO) build -o /tmp/mwctl-fed ./cmd/mwctl
	@/tmp/mw-reg -addr 127.0.0.1:7640 -metrics-addr 127.0.0.1:7641 & rpid=$$!; \
	/tmp/mw-fed -addr 127.0.0.1:7642 -registry 127.0.0.1:7640 -name cs-0 \
		-building multistorey:2 -floors CS/F0 -trace -slo 'ingest=p99<1s' & d0=$$!; \
	/tmp/mw-fed -addr 127.0.0.1:7643 -registry 127.0.0.1:7640 -name cs-1 \
		-building multistorey:2 -floors CS/F1 -trace & d1=$$!; \
	sleep 2; rc=0; \
	/tmp/mwctl-fed -addr 127.0.0.1:7642 sensor ubi-1 || rc=1; \
	/tmp/mwctl-fed -addr 127.0.0.1:7643 sensor ubi-1 || rc=1; \
	/tmp/mwctl-fed -addr 127.0.0.1:7642 ingest ubi-1 alice 'CS/F1/(5,5)' || rc=1; \
	/tmp/mwctl-fed -registry 127.0.0.1:7640 stats -cluster > /tmp/mw-cluster.out || rc=1; \
	head -6 /tmp/mw-cluster.out; \
	grep -q '^cluster: 2/2' /tmp/mw-cluster.out || { echo "FAIL: cluster scrape incomplete"; rc=1; }; \
	grep -q '^fed_forwarded_readings_total *1' /tmp/mw-cluster.out || { echo "FAIL: forward not counted"; rc=1; }; \
	/tmp/mwctl-fed -registry 127.0.0.1:7640 trace -cluster 5 > /tmp/mw-trace.out || rc=1; \
	grep -q 'fed_ingest' /tmp/mw-trace.out || { echo "FAIL: no owner-side span in cluster trace"; rc=1; }; \
	curl -sf http://127.0.0.1:7641/metrics/cluster | grep -q '^cluster_daemons_scraped 2' \
		|| { echo "FAIL: /metrics/cluster"; rc=1; }; \
	/tmp/mwctl-fed -addr 127.0.0.1:7642 health -v | grep -q '^slos:' || { echo "FAIL: no slo block"; rc=1; }; \
	kill $$d0 $$d1 $$rpid; exit $$rc

# Observability suite: the obs package, trace propagation, the
# daemon's SLO health block and the per-peer counters under the race
# detector. The zero-allocation guards are build-tagged !race (the race
# runtime allocates inside atomics), so `make test` runs them. Every
# -run alternative in this file must match a test in its package
# (TestMakefileRunPatternsMatchTests).
obs:
	$(GO) test -race -count=1 ./internal/obs/ ./internal/obs/cluster/
	$(GO) test -race -count=1 -run 'Trace|TestHealthReportsSLOs' ./internal/remote/
	$(GO) test -race -count=1 -run 'Trace|TestPeerState' ./internal/fed/

# Smoke the debug endpoint: start the daemon with tracing and the
# debug server on ephemeral-ish ports, hit /metrics and mw.stats
# through mwctl, then tear down.
stats-demo:
	@$(GO) build -o /tmp/mw-demo ./cmd/middlewhere
	@$(GO) build -o /tmp/mwctl-demo ./cmd/mwctl
	@/tmp/mw-demo -addr 127.0.0.1:7709 -trace -debug-addr 127.0.0.1:7779 & \
	pid=$$!; sleep 1; rc=0; \
	curl -sf http://127.0.0.1:7779/metrics | head -5 || rc=1; \
	/tmp/mwctl-demo -addr 127.0.0.1:7709 stats | head -8 || rc=1; \
	/tmp/mwctl-demo -addr 127.0.0.1:7709 health || rc=1; \
	kill $$pid; exit $$rc

# Fails when any file needs reformatting (the CI gate).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Rewrites files in place (the local fix for a failing fmt gate).
fmt-write:
	gofmt -l -w .

# The fuzz smoke runs at a shorter FUZZTIME than CI's.
check: build vet fmt test race concurrency-gate shard-stress bench chaos chaos-federation obs stats-demo
	$(MAKE) fuzz-smoke FUZZTIME=5s
