GO ?= go
FUZZTIME ?= 10s
BENCHTIME ?= 1x

.PHONY: all build vet test race fuzz bench bench-layers e2e-restart e2e-repair e2e-lease e2e-failover e2e-scrub e2e-trace soak-smoke ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Each fuzz target must run in its own invocation (go test allows one
# -fuzz pattern per package at a time).
fuzz:
	$(GO) test -fuzz=FuzzDecoder -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz=FuzzNodeDecode -fuzztime=$(FUZZTIME) ./internal/meta/
	$(GO) test -fuzz=FuzzWriteDescDecode -fuzztime=$(FUZZTIME) ./internal/meta/
	$(GO) test -fuzz=FuzzPutNodesReqDecode -fuzztime=$(FUZZTIME) ./internal/meta/
	$(GO) test -fuzz=FuzzPatchReplicasReqDecode -fuzztime=$(FUZZTIME) ./internal/meta/
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/durable/
	$(GO) test -fuzz=FuzzWALFrame -fuzztime=$(FUZZTIME) ./internal/durable/
	$(GO) test -fuzz=FuzzCoalescedBatchTear -fuzztime=$(FUZZTIME) ./internal/durable/
	$(GO) test -fuzz=FuzzLeaseRecordReplay -fuzztime=$(FUZZTIME) ./internal/vmanager/
	$(GO) test -fuzz=FuzzReplicationDivergence -fuzztime=$(FUZZTIME) ./internal/vmanager/
	$(GO) test -fuzz=FuzzDigestWireDecode -fuzztime=$(FUZZTIME) ./internal/provider/
	$(GO) test -fuzz=FuzzTraceTrailer -fuzztime=$(FUZZTIME) ./internal/rpc/

# Macro-benchmark smoke test: one iteration of every reconstructed
# experiment (E1-E14, including the E14 repair-under-churn bench) keeps
# the bench harness from rotting; raise BENCHTIME (and add -count) when
# measuring for real. BENCH_baseline.json / BENCH_after.json record the
# E1/E4 before/after of the metadata-batching refactor (PR 3);
# BENCH_baseline_pr4.json / BENCH_after_pr4.json record the E13
# before/after of the write-plane batching + WAL group commit (PR 4);
# BENCH_baseline_pr5.json / BENCH_after_pr5.json record the E14
# degraded-vs-repaired numbers of the self-healing repair engine (PR 5);
# BENCH_baseline_pr9.json / BENCH_after_pr9.json record the E1
# before/after of verify-on-read chunk integrity (PR 9, gate <=3%).
bench:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) .

# Per-layer micro-benchmarks of the chunk data plane, with -benchmem: wire
# codec, chunk engines, rpc calls over the simulated fabric and TCP
# loopback at 1 KiB / 64 KiB / 1 MiB (BenchmarkSimCall, BenchmarkTCPCall),
# a 64 KiB provider.get over TCP (BenchmarkProviderGet), and the metadata
# descents: a 1-chunk weave into a 13-level tree over the simulated rpc
# (BenchmarkWeave, gets/op) and a GC sweep with N retained versions
# (BenchmarkGCSweep, getnodes/op). B/op is the rpc copy budget in numbers;
# the copy-budget tests gate it, and the weave and sweep RPC budgets are
# gated by TestWeaveGetBudget and TestSweepGetNodesBudget. The default
# BENCHTIME=1x is a smoke run; measure with e.g. BENCHTIME=2s.
bench-layers:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./internal/wire/ ./internal/chunk/ ./internal/rpc/ ./internal/provider/ ./internal/meta/ ./internal/gc/

# Crash-recovery end-to-end suite: kill -9 + restart of the version
# manager and metadata providers, in-harness (mid-write-storm) and as real
# OS processes, under the race detector.
e2e-restart:
	$(GO) test -race -count=1 -run 'TestCrashRecoveryMidWriteStorm|TestRestartVolatileVMComesBackEmpty' ./internal/fault/
	$(GO) test -race -count=1 -run 'TestDaemonCrashRecovery' ./cmd/blobseerd/

# Self-healing end-to-end suite: kill-one-provider re-replication with
# batched-RPC bounds, watermark rebalance with stale-cache reader
# recovery, stray-replica GC after a dead provider returns, and durable
# provider sidecar restarts.
e2e-repair:
	$(GO) test -race -count=1 ./internal/repair/
	$(GO) test -race -count=1 -run 'TestSidecar' ./internal/provider/

# Writer-lease end-to-end suite: writers kill -9'd between Assign and
# Commit and mid-upload must not wedge the publish frontier — lease expiry
# aborts them, weaves their identity trees server-side, un-parks the
# orphan sweep, and refuses late commits with a typed error.
e2e-lease:
	$(GO) test -race -count=1 -run 'TestWriterLease' ./internal/fault/

# Control-plane failover end-to-end suite: the version-manager leader
# kill -9'd mid-write-storm with a quorum standby; writes must resume
# within 2x the leadership TTL, zero committed versions may be lost, and
# the rejoining ex-leader must come back fenced (typed not-leader
# redirects) and resync to a byte-identical state digest. Plus the
# replication unit suite: convergence, synchronous quorum, divergent
# journal-tail truncation.
e2e-failover:
	$(GO) test -race -count=1 -run 'TestFailoverMidWriteStorm|TestStandbyCrashDoesNotBlockCommits' -timeout 10m ./internal/fault/
	$(GO) test -race -count=1 -run 'TestReplication|TestQuorum|TestFailover|TestDivergent|TestRebooted' ./internal/vmanager/

# Chunk-integrity end-to-end suite, under the race detector: with one
# replica bit-rotted, concurrent readers must fail over without ever
# seeing wrong bytes, and one scrub pass (RAM and disk engines) must
# quarantine the rot, re-replicate from a verified survivor, and purge the
# bad copy. Plus the provider-local verification unit suite.
e2e-scrub:
	$(GO) test -race -count=1 -run 'TestCorruptReplicaReadFailover|TestScrubRestoresDegree' ./internal/fault/
	$(GO) test -race -count=1 -run 'TestGetQuarantinesCorruptCopy|TestIngestRejectsCorruptPut|TestLegacyChunkBackfilledOnRead|TestVerifyChunkRecheck|TestScrubStepBudgetAndResume|TestSidecarDigestReplayAndTornFileBootCheck' ./internal/provider/

# Distributed-tracing end-to-end suite, under the race detector: a
# sampled 256-chunk cold read must land client/vmanager/metadata/provider
# spans under one trace id; the trace must survive a leader failover
# (redirect) and metadata/provider restart-in-place (tracer re-attach);
# background planes must originate their own root traces; plus the
# ring-buffer race hammer and the trace-trailer unit suite.
e2e-trace:
	$(GO) test -race -count=1 -run 'TestTrace|TestBackgroundPlanes' ./internal/cluster/
	$(GO) test -race -count=1 ./internal/trace/ ./internal/rpc/

# Open-loop soak smoke: 10 seconds of blaster traffic (read/write mix,
# zipf popularity) against a full in-process cluster with the metrics
# plane on. Fails on an error-budget breach (>1% errored ops) or a rate
# collapse. SOAK_SECS stretches it into a longer soak.
SOAK_SECS ?= 10
soak-smoke:
	BLASTER_SOAK_SECS=$(SOAK_SECS) $(GO) test -race -count=1 -run 'TestSoakSmoke' -timeout 10m ./internal/blaster/

ci: vet build race fuzz bench bench-layers e2e-restart e2e-repair e2e-lease e2e-failover e2e-scrub e2e-trace soak-smoke

clean:
	$(GO) clean -testcache
