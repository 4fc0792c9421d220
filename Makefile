GO ?= go

.PHONY: all build test tier1 check guards qd-soak prof/wire lint charmvet race fuzz bench vet profile chaos introspect serve loc

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# tier1 is the whole test suite at 1, 2 and 8 scheduler threads, without
# the race detector: the allocation guards' byte bounds hold only without it.
tier1:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p $(GO) test -count=1 ./... || exit 1; \
	done

vet:
	$(GO) vet ./...

# charmvet enforces the CharmGo model invariants in chare code that the
# compiler, go vet and the race detector cannot see (entry-method
# signatures, gob safety, PE-blocking calls, migration safety). See
# DESIGN.md §3.3 and §3.7; each rule's witness test (internal/analysis,
# TestWitness*) shows its mistake passing all three. It exits 1 on any
# finding; silence a deliberate one on its line with
# `//charmvet:ignore <check>`. The -json report's schema is held by
# internal/analysis's TestCharmvetJSONReport.
charmvet:
	$(GO) run ./cmd/charmvet ./...

# lint is go vet, charmvet, and the exported-API reachability test: an
# identifier in internal/... that no non-test file uses fails it unless
# internal/analysis/testdata/api_allowlist.txt lists it with a citation
# (DESIGN.md §3.7).
lint: vet charmvet
	$(GO) test -count=1 -run TestExportedAPIPaysRent ./internal/analysis

# chaos runs the fault-tolerance suite (failure detection, buddy
# checkpointing, kill-one-node recovery, chaos transport) under the race
# detector. See DESIGN.md §3.4 and EXPERIMENTS.md.
chaos:
	$(GO) test -race -count=1 ./internal/ft/

# serve is the elastic-serving smoke (DESIGN.md §3.8): a 3-node kvservice
# cluster absorbs one planned node join and one planned node leave under
# continuous load, and the run must end with zero lost requests, every key
# readable, a finite p99 and no failure-detector false positives.
serve:
	$(GO) run ./examples/kvservice -check -seconds 6

# check is the CI gate: build everything, lint (go vet + charmvet), run the
# full test suite under the race detector, then the chaos/recovery suite, the
# live-introspection smoke, the elastic-serving smoke and the traced
# charmrun stencil3d job (profile). The race run skips the kvservice allocation
# guard, which counts bytes and so also the race detector's own; guards runs
# it without the detector.
check: build lint guards
	$(GO) test -race -skip 'TestKVRequestAllocGuard' ./...
	$(MAKE) chaos
	$(MAKE) introspect
	$(MAKE) serve
	$(MAKE) profile

# guards runs, without -short and without the race detector's own
# allocations, the fine-grain stencil, kvservice request and remote-invoke
# allocation guards, the Message size-class guard, the wire codec allocation
# guards, the future-set and Mem transport allocation guards
# (TestFutureSetAllocs, TestMemSendBufAllocs), the
# one-clock-read-per-entry-method count, the LB strategy's
# active-PE view (TestLBSeesOnlyActivePEs), a smoke of the bound
# when-guard benchmark (0 allocs/op, target <= 30 ns; it fails if an
# evaluation allocates), the tests that pin the aggregator's flush rules and
# the kvservice timeout, boot and close-at-once tests; then, under the race
# detector at 1, 2 and 8 scheduler threads, the two that race a parking PE or
# a starting node, the one that poisons every returned invoke box (and checks
# the run semantics: per-sender FIFO, kept messages; its future-set subtest
# does the same for replies), the one that sends
# through a PE's proxy from a goroutine not its own while the PE floods through
# it too (the PE's box stock must not be shared), the one that checks
# repeat sub-frames at both ends of the wire, the scheduler's own
# per-sender FIFO and one-PE-at-a-time tests (TestPerSenderFIFO,
# TestSingleExecution, the second across migrations), the handles' wire
# identity (wire calls against ser), a fragmented broadcast at 4 and 6
# nodes (identical bytes everywhere, quiescence behind it), a forced LB
# round against quiescence detection and against an AtSync round in
# flight, an AtSync round whose
# PE barriers change under a forced round's moves, charmvet's rule witnesses
# 20 times over (each rule's mistake run through a real runtime; a witness
# that fails says the runtime now rejects the shape and the rule can go),
# and the quiescence
# tests 20 times over (qd-soak: QD_COUNT = 200 times, the gate for a change
# to the counting sites of DESIGN.md §quiescence).
QD_TESTS = TestQuiescence|TestQDNotEarly|TestStressMultiNode
QD_COUNT ?= 200
guards:
	$(GO) test -count=1 -run 'TestStencilFineAllocGuard|TestKVRequestAllocGuard|TestRemoteInvokeAllocGuard' .
	$(GO) test -count=1 -run 'TestMessageSizeClass|TestAppendMsgAllocs|TestDecodeArgsAllocs|TestDecodeFlatArgsAllocs|TestDecodeErrorReturnsBox|TestFutureSetAllocs|TestOneClockReadPerEM|TestLBSeesOnlyActivePEs' -bench 'BenchmarkWhenGuardBlock' -benchtime 100x ./internal/core
	$(GO) test -count=1 -run 'TestMemSendBufAllocs' ./internal/transport
	$(GO) test -count=1 -run 'TestSenderFlushesWhenAllPEsParked|TestNoStrandedSendUnderParkRace|TestFloodStillBatches|TestBackstopFlushesPinnedPE' ./internal/core
	$(GO) test -count=1 -run 'TestServiceCloseImmediately|TestCallTimeoutStillFires|TestBootIgnoresRequestTimeout' ./internal/elastic
	for p in 1 2 8; do \
		GOMAXPROCS=$$p $(GO) test -race -count=1 -run 'TestNoStrandedSendUnderParkRace|TestRecycledBoxNeverObserved|TestForeignGoroutineInvoke|TestBatchRepeatHeaders|TestPerSenderFIFO|TestSingleExecution|TestHandleWireIdentity|TestBroadcastFragmentation|TestQDNotEarlyForcedLB|TestForcedLBOverlapsAtSync|TestAtSyncAfterForcedMoves' ./internal/core && \
		GOMAXPROCS=$$p $(GO) test -race -count=1 -run 'TestServiceCloseImmediately' ./internal/elastic && \
		GOMAXPROCS=$$p $(GO) test -race -count=20 -run 'TestWitness' ./internal/analysis || exit 1; \
	done
	$(MAKE) qd-soak QD_COUNT=20

qd-soak:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p $(GO) test -race -count=$(QD_COUNT) -timeout 30m -run '$(QD_TESTS)' ./internal/core || exit 1; \
	done

# prof/wire is where a wire-path issue starts: BenchmarkRemoteInvokeRate over
# loopback TCP with default batching (the benchmark's stream_tcp shape) under
# the CPU and allocation profilers, top 25 lines of each. PROF_DIR keeps the
# test binary and the profiles out of the checkout.
PROF_DIR ?= /tmp/charmgo-prof
prof/wire:
	mkdir -p $(PROF_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkRemoteInvokeRate/tcp-batched' -benchtime 5s -benchmem \
		-o $(PROF_DIR)/wire.test -cpuprofile $(PROF_DIR)/wire.cpu -memprofile $(PROF_DIR)/wire.mem -memprofilerate 4096 .
	$(GO) tool pprof -top -nodecount 25 $(PROF_DIR)/wire.test $(PROF_DIR)/wire.cpu
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 25 $(PROF_DIR)/wire.test $(PROF_DIR)/wire.mem

race:
	$(GO) test -race ./...

# fuzz runs each native fuzz target briefly against the committed seed
# corpora plus fresh mutations; CI-sized smoke, not a campaign.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeInvoke -fuzztime 10s ./internal/ser
	$(GO) test -run '^$$' -fuzz FuzzBoundGuard -fuzztime 10s ./internal/expr

bench:
	$(GO) test -run xxx -bench BenchmarkRemoteInvokeRate -benchtime 2s .
	$(GO) test -run xxx -bench 'BenchmarkEncodeMsgInvoke|BenchmarkDecodeMsgInvoke|BenchmarkMailbox' ./internal/core/
	$(GO) test -run xxx -bench BenchmarkBroadcastReduce -benchtime 20x .

# loc prints the non-test Go lines of every top-level directory (one line per
# directory under internal/, cmd/ and examples/; "." is the root package),
# internal/core first, then the total: the number a deletion is gated on.
# Test files and testdata fixtures are not counted. Two more gates follow: the
# number of core.Config fields, and the reads of an observer sink (the tracer,
# the metrics bundle, the sampler) in non-test internal/core — event sites go
# through the observer (DESIGN.md §3.2), so what is left builds it, runs the
# sampler or gathers traces.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v -e '_test\.go$$' -e '/testdata/' | xargs wc -l | \
	awk '$$2 != "total" { n = split($$2, p, "/"); k = n == 1 ? "." : p[1]; \
		if (n > 2 && (k == "internal" || k == "cmd" || k == "examples")) k = k "/" p[2]; \
		s[k] += $$1; t += $$1 } \
	END { printf "%7d internal/core\n", s["internal/core"]; delete s["internal/core"]; \
		for (k in s) printf "%7d %s\n", s[k], k | "sort -k2"; close("sort -k2"); \
		printf "%7d total\n", t }'
	@awk '/^type Config struct/ { c = 1; next } c && /^}/ { c = 0 } c && /^\t[A-Z]/ { n++ } \
		END { printf "%7d Config fields\n", n }' internal/core/runtime.go
	@git ls-files -co --exclude-standard 'internal/core/*.go' | grep -v '_test\.go$$' | \
		xargs grep -oE 'cfg\.Trace\b|\.met\b|\.sampler\b' | wc -l | \
		awk '{ printf "%7d observer-sink reads in internal/core\n", $$1 }'

# profile runs a traced 2-process stencil3d job under charmrun and validates
# that the exported timeline is well-formed Chrome trace-event JSON.
profile:
	$(GO) build -o /tmp/charmgo-stencil3d ./examples/stencil3d
	$(GO) build -o /tmp/charmgo-charmrun ./cmd/charmrun
	$(GO) build -o /tmp/charmgo-tracecheck ./cmd/tracecheck
	/tmp/charmgo-charmrun -np 2 -pes 2 -baseport 17160 -trace /tmp/charmgo-stencil.json /tmp/charmgo-stencil3d
	/tmp/charmgo-tracecheck /tmp/charmgo-stencil.json

# introspect is the live-introspection smoke (DESIGN.md §3.6): launch the
# kvstore example across 3 processes with CCS sampling on, scrape node 0's
# /introspect while the job runs, schema-check the cluster snapshot
# (introspectcheck also does one `charmgo top -json`-equivalent fetch of the
# live trace window), validate that window with tracecheck, then let the job
# finish cleanly.
introspect:
	$(GO) build -o /tmp/charmgo-kvstore ./examples/kvstore
	$(GO) build -o /tmp/charmgo-charmrun ./cmd/charmrun
	$(GO) build -o /tmp/charmgo-tool ./cmd/charmgo
	$(GO) build -o /tmp/charmgo-introspectcheck ./cmd/introspectcheck
	$(GO) build -o /tmp/charmgo-tracecheck ./cmd/tracecheck
	/tmp/charmgo-charmrun -np 3 -pes 2 -baseport 17180 -ccs-addr 127.0.0.1:9390 \
		/tmp/charmgo-kvstore -seconds 15 -shards 24 & \
	CRPID=$$!; \
	sleep 4; \
	/tmp/charmgo-tool top -json 127.0.0.1:9390 > /tmp/charmgo-introspect.json && \
	/tmp/charmgo-introspectcheck -nodes 3 /tmp/charmgo-introspect.json && \
	/tmp/charmgo-introspectcheck -nodes 3 -trace-out /tmp/charmgo-introwindow.json -window 3s \
		http://127.0.0.1:9390/introspect && \
	/tmp/charmgo-tracecheck /tmp/charmgo-introwindow.json; \
	RC=$$?; wait $$CRPID || RC=1; exit $$RC
