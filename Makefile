# Development entry points. `make check` is the CI gate: gofmt, vet, the docs
# link- and flag-checkers, the race detector over the short suite, the plain
# short suite, and the benchmark module's smoke test. `make test` adds the
# full-scale experiments (the ~1 min TestFullScaleHeadline); `make full`
# chains everything and briefly runs the fuzzers. `make lines` prints the
# size every simplicity change is judged by.

GO ?= go

.PHONY: check fmtcheck vet build linkcheck race race-detect test-short testshort test bench bench-smoke bench-udp pairs xl-rss sweep largescale fuzz cross lines full fmt

check: fmtcheck vet build linkcheck race race-detect testshort bench-smoke

# gofmt gate: fail (and list the offenders) if any file is unformatted.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Every relative link in README/EXPERIMENTS/ROADMAP/docs must resolve, and
# every flag of a documented `go run ./cmd/...` line must exist.
linkcheck:
	$(GO) test -run '^TestDocs' .

# Race-detect the short suite: the sweep engine is the only concurrent code,
# but pooled-event regressions would also surface here first.
# internal/scenario, the slowest package under -race by far, runs on its own
# after the others so it never races them for the CPU inside its 10-minute
# per-package timeout.
race:
	$(GO) test -race -short $$($(GO) list ./... | grep -v '/internal/scenario$$')
	$(GO) test -race -short ./internal/scenario

# Full (not -short) race pass over the detection and adaptation loops plus
# the paced sender they poll: the misbehavior oracle/property suite, the
# adapt controller, and the ratelimit concurrency regressions run with their
# complete iteration counts under the race detector. The simnet cross-shard
# exchange storm, the event-queue push/pop/defer storm and the shard-count
# determinism oracles run here too — the
# sharded event loop is the one place simulation results depend on goroutine
# discipline — plus the cluster-sampler storm (concurrent split draws against
# the brute-force oracle). udpnet runs whole: its event loop shares the timer
# heap, the parked flag and each node's pacer with callers on other
# goroutines (Execute, AfterFunc and Send from outside the loop, joins and
# Close). udpnet and ratelimit run on one P as well as two, so their wake
# protocols (a Send or an AfterFunc pokes a parked loop; an Enqueue notifies
# a consumer whose last step left the ring empty) are raced with the two
# sides interleaved by the scheduler, not only in parallel.
race-detect:
	$(GO) test -race ./internal/misbehave ./internal/adapt
	$(GO) test -race -cpu 1,2 ./internal/ratelimit ./internal/udpnet
	$(GO) test -race -run 'TestCrossShardExchangeRace|TestQueuePushPopDeferStorm' ./internal/simnet
	$(GO) test -race -run 'TestClusterSamplerStorm' ./internal/membership
	$(GO) test -race -run 'TestDeterminismShardCounts|TestDeterminismTopologyShardCounts' ./internal/scenario

test-short: testshort
testshort:
	$(GO) test -short ./...

test:
	$(GO) test ./...

# benchmark/ is a module of its own, so `./...` above never compiles it:
# vet it and run every workload at toy size against this tree's internals.
bench-smoke:
	cd benchmark && $(GO) vet . && $(GO) test -short -race .

# One iteration of every simulator benchmark (internal/scenario's
# bench_test.go: the §5 ablations, the sweep pair, the 1k dynamics and
# multi-stream cells); -short skips the 100k/1M cells, which run only when
# named (see EXPERIMENTS.md).
bench:
	$(GO) test -short -bench=. -benchtime=1x -run='^$$' ./internal/scenario

# The UDP fast-path saturation benchmark: loopback pps and allocs/datagram,
# batched syscalls (sendmmsg/recvmmsg, with UDP_SEGMENT trains sent and
# UDP_GRO trains received where the kernel has them) vs the portable
# single-syscall path.
bench-udp:
	$(GO) test -bench 'UDPLoopbackSaturation' -benchtime 2s -run '^$$' ./internal/udpnet

# Alternating parent/change runs of one benchmark workload, the evidence a
# claimed gain needs: one line per run, then medians, the parent's IQR and
# pairs won per end-to-end metric (scripts/pairs.sh; ~1 min per pair).
#   make pairs W=sim-large PARENT=HEAD~1 SEEDS="17 18 19 20 21 22 23 24 25 26"
W ?= sim-large
PARENT ?= HEAD~1
SEEDS ?= 17 18 19 20 21 22 23 24 25 26
pairs:
	bash scripts/pairs.sh $(W) $(PARENT) $(SEEDS)

# Wall time and peak RSS (ru_maxrss, whole and per node) of one
# LargeScaleXL(N, 17, S) cell: an opt-in test the plain suite skips (Linux).
#   make xl-rss N=10000 S=1
N ?= 10000
S ?= 1
xl-rss:
	$(GO) test -count=1 -run '^TestLargeScaleXLPeakRSS$$' -v ./internal/scenario -args -xl-nodes $(N) -xl-shards $(S)

# The paper's headline grid on all cores, CSV into out/.
sweep:
	$(GO) run ./cmd/heapsweep -csv out/

# The LargeScale family (1k/5k nodes, flash crowds, churn bursts).
largescale:
	$(GO) run ./cmd/heapsweep -largescale -csv out/largescale/

# Brief fuzzing of the wire codec, the topology- and netem-config decoders,
# the capability estimator, the simnet event queue, the dissemination engine,
# the misbehavior detector, target selection and the adversary spec (one
# target per invocation is a Go toolchain constraint). The wire corpora cover
# both the legacy single-stream encodings and the stream-id-tagged
# multi-stream forms; the topo and netem targets
# drive Validate/Build agreement and rebuild stability over arbitrary config
# bytes;
# the estimator and queue targets replay op sequences against brute-force
# oracles, the engine target feeds core decoded Propose/Request/Serve
# sequences and checks its packet table and exactly-once delivery, and the
# detector target feeds it arbitrary evidence (these inputs are long, so
# minimizing each new one is capped or it eats the run). The decoder-reuse
# target decodes a pair of byte strings on one wire.Decoder and requires the
# second to come out as it does fresh; the pool target requires a
# wire.Pool copy to keep its bytes when the original, or a recycled copy, is
# overwritten. The selector target draws through a membership.Selector with
# decoded exclusion sets and weights and checks every draw against the
# View's own draw and the split oracle; the adversary target requires every
# AdversarySpec validation accepts to build its adversary state.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecoderReuse$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzPoolCopy$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzTopologyConfig$$' -fuzztime 10s ./internal/topo
	$(GO) test -run '^$$' -fuzz '^FuzzNetemConfig$$' -fuzztime 10s ./internal/netem
	$(GO) test -run '^$$' -fuzz '^FuzzEstimatorOracle$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/aggregation
	$(GO) test -run '^$$' -fuzz '^FuzzQueueOracle$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/simnet
	$(GO) test -run '^$$' -fuzz '^FuzzEngineReceive$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDetectorEvidence$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/misbehave
	$(GO) test -run '^$$' -fuzz '^FuzzSelectorOracle$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/membership
	$(GO) test -run '^$$' -fuzz '^FuzzAdversarySpec$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/scenario

# Cross-compile the tree for the other platforms the I/O split serves: the
# portable fallback (darwin) and the batched path on 32- and 64-bit Linux,
# whose msghdr length fields differ in width (uint32 on 386/arm, uint64 on
# amd64/arm64). udpnet is vetted for each, since its unsafe layouts differ.
# The per-id size pins then run as 386 binaries (an amd64 host runs them
# natively), so a layout that only fits on 64-bit fails here.
cross:
	@set -e; for p in darwin/arm64 linux/386 linux/arm64; do \
		echo "GOOS=$${p%/*} GOARCH=$${p#*/}"; \
		GOOS=$${p%/*} GOARCH=$${p#*/} $(GO) build ./...; \
		GOOS=$${p%/*} GOARCH=$${p#*/} $(GO) vet ./internal/udpnet; \
	done
	GOARCH=386 $(GO) test -count=1 -run 'SizePinned|BytesPerID|Footprint' ./internal/core ./internal/aggregation

# Non-test, non-comment, non-blank Go lines outside benchmark/.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l

full: check test fuzz

fmt:
	gofmt -l -w .
