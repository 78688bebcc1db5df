# Build/test entry points. `make check` is the full gate (vet + build +
# race-enabled tests including the chaos suite); `make test-short` skips
# the chaos tests for a fast tier-1-style pass.

GO ?= go

.PHONY: check fmt build vet test test-short test-race parity chaos churn-smoke disk-smoke bench bench-json load-json load-smoke obs-smoke digest-smoke fuzz loc

check: fmt vet build test-race

# Formatting gate: fails (and lists the offenders) if any tracked Go
# file is not gofmt-clean.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Fast pass: -short skips the fault-injection chaos tests.
test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# The sim↔live decision-equivalence gate: replays one generated trace
# through the simulator and through a live socket group and demands
# identical hit mix, placement decisions, and final resident sets.
parity:
	$(GO) test -race -v -run TestSimLiveParity ./internal/parity/

# Just the chaos suite: the live 4-node group under injected faults.
chaos:
	$(GO) test -race -v -run 'TestBreaker|TestRemoteHitFetchFailure|TestPeerCrash|TestUDPLoss|TestStalledOrigin|TestChaosFlagged|TestChaosHash|TestChaosHerd|TestChaosChurn|TestDemoWithChaos' ./internal/netnode/ ./cmd/proxyd/

# Membership churn gate: kill, ejection, runtime join, revival and
# readmission under continuous traffic, race-enabled. -short runs the
# same transitions over a smaller catalogue (the CI smoke); the verbose
# log carries the per-step migration accounting and is kept as the
# artifact.
CHURN_LOG ?= artifacts/churn-smoke.log
churn-smoke:
	@mkdir -p $(dir $(CHURN_LOG))
	@$(GO) test -race -short -v -run TestChaosChurn ./internal/netnode/ > $(CHURN_LOG) 2>&1; \
	status=$$?; cat $(CHURN_LOG); exit $$status

# Disk-tier gate: the blob store's own suite (kill-at-every-offset index
# recovery, checksum self-healing, compaction) plus the tier controller
# unit surface, then the live end-to-end checks — a node overflows 10x
# its memory capacity onto disk, dies without a checkpoint, and the
# successor recovers every document with every blob checksum intact.
# Finally the hot-path budget: benchjson -check-tier fails if the tiered
# pass-through costs a single byte or alloc over the bare memory hit.
DISK_LOG ?= artifacts/disk-smoke.log
disk-smoke:
	@mkdir -p $(dir $(DISK_LOG))
	@{ $(GO) test -race -v ./internal/blob/ && \
	   $(GO) test -race -v -run 'TestTiered|TestDemote|TestRestoreDisk' ./internal/cache/ && \
	   $(GO) test -race -v -run 'TestJournalTier|TestMarshalEventRejects|TestSnapshotV2|TestSnapshotAccepts|TestSnapshotRejects|TestReplayTier|TestCheckpointPersistsDisk' ./internal/persist/ && \
	   $(GO) test -race -v -run 'TestTier' ./internal/netnode/; } > $(DISK_LOG) 2>&1; \
	status=$$?; cat $(DISK_LOG); exit $$status
	$(GO) run ./cmd/benchjson -out /tmp/tier-smoke.json -artifacts=false -node-iters 2000 -node-reps 1 -check-tier

bench:
	$(GO) test -bench . -benchmem ./...

# Headless benchmark run: paper artifacts, a simulated group replay
# (hit rate / byte hit rate / estimated latency), the disk-tier
# demote/promote paths plus the memory-hit parity pair, and the
# live-socket node benchmarks — telemetry off/on plus the parallel run
# on the sharded store. Writes BENCH_JSON.
BENCH_JSON ?= BENCH_pr10.json
BENCH_FLAGS ?=
bench-json:
	$(GO) run ./cmd/benchjson -out $(BENCH_JSON) $(BENCH_FLAGS)

# Open-loop load harness (cmd/loadgen) against a live 2-node group over
# real sockets. load-json ramps to saturation and writes the tail-latency
# artifact (p50/p99/p999, saturation RPS, shed/coalesce rates);
# load-smoke is the CI gate — a few seconds at low RPS must finish with
# zero sheds and zero errors, or the overload layer is misfiring at
# unsaturated load.
LOAD_JSON ?= BENCH_pr6.json
load-json:
	$(GO) run ./cmd/loadgen -nodes 2 -rps 300 -duration 5s -saturate -out $(LOAD_JSON)

load-smoke:
	$(GO) run ./cmd/loadgen -nodes 2 -rps 50 -duration 3s -check -out $(LOAD_JSON)

# Group observability gate: live multi-node groups introspected by
# eacctl over their admin surfaces. Covers single-seed member discovery,
# cross-node trace stitching (one remote hit -> one trace ID on both the
# requester and the responder), and the replication-factor audit — under
# consistent-hash location the factor computed from /admin/resident must
# stay <= 1.0. Checks that every Node.Robustness/DigestStats field equals
# its /metrics series. Also re-runs the loadgen -obs path so the
# slow-trace artifact plumbing stays honest.
obs-smoke:
	$(GO) test -race -v -run 'TestEacctlAgainstLiveGroup|TestHashGroupReplicationBound' ./cmd/eacctl/
	$(GO) test -race -v -run 'TestCrossPeerTracePropagation|TestMalformedTraceContextNeverFatal|TestCountersMatchScrape' ./internal/netnode/
	$(GO) test -race -v -run 'TestLoadgenObsRecordsSlowTraces' ./cmd/loadgen/

# Digest-location gate: a live 3-node -locate=digest group under
# traffic, plus the delta-sync unit surface. After the first-contact
# full transfers, every background refresh must ride the change log as
# a delta — eacctl's aggregated /admin/digests counters prove deltas
# outnumber fulls and the rebuild escape hatch never fired — and the
# counting-filter maintenance plus sync wire cost stay within budget
# (delta bytes < 10% of a full transfer, asserted by -check-digest).
digest-smoke:
	$(GO) test -race -v -run 'TestDigestGroupDeltaSteadyState' ./cmd/eacctl/
	$(GO) test -race -v -run 'TestDigest|TestIncremental|TestDelta' ./internal/netnode/ ./internal/digest/
	$(GO) run ./cmd/benchjson -out /tmp/digest-smoke.json -artifacts=false -node-iters 2000 -node-reps 1 -check-digest

# Fuzz the decoders that face untrusted bytes: journal/snapshot recovery
# and the wire parsers. Short per-target budget by default; raise with
# e.g. `make fuzz FUZZTIME=2m` for a longer soak.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -fuzz FuzzReadRequest -fuzztime $(FUZZTIME) ./internal/hproto/
	$(GO) test -fuzz FuzzReadResponse -fuzztime $(FUZZTIME) ./internal/hproto/
	$(GO) test -fuzz FuzzDecodeSync -fuzztime $(FUZZTIME) ./internal/digest/

# Code size: non-test Go lines outside perfbench/ (the number ROADMAP.md
# tracks; it should go down).
loc:
	@find . -path './.*' -prune -o -path ./perfbench -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l
