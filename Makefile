# Tier-1 verification (ROADMAP.md): formatting, vet (also cross-compiled for
# arm64, which keeps the portable file sets of internal/prng and internal/score
# building), the parsivet
# determinism lint, build, tests (shuffled so order dependence surfaces), a
# race-detector pass over the concurrency-bearing packages (the goroutine
# message-passing runtime, the split-scoring paths, the intra-rank worker
# pool, the observability sinks, the core/GaneSH engines above them, the
# clustering state whose stored block scores the pool's workers read, the
# tree/module code that calls comm collectives, the TSV codec every job's
# data set is read with, and the supervised job runtime), and the
# fault-injection suite under the race detector.

GO ?= go

# Iterations of the seeded cancel/fault chaos soak (`make soak`).
SOAK_ITERS ?= 25

.PHONY: tier1 fmt vet cross lint build test race faults pins soak fuzz fuzz-score fuzz-wire bench bench-core bench-cluster bench-hybrid serve-smoke loc

tier1: fmt vet cross lint build test race faults

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Vet for arm64: the platform without the vector kernels must compile their
# portable paths (internal/prng/draw_other.go, internal/score/log_other.go
# and split_other.go, internal/cluster/gather_other.go,
# internal/cpu/cpu_other.go) and nothing may leak an amd64-only symbol into
# them.
cross:
	GOARCH=arm64 $(GO) vet ./...

# The parsivet suite (cmd/parsivet): seven analyzers, one per contract —
# map order, float comparison, worker pool and score kernel per package;
# PRNG/wallclock (detreach), comm symmetry (commreach) and dropped
# comm/wire/checkpoint errors (errsink) over the whole-program call graph.
# Standard library only — builds from the local module cache, no network.
# `parsivet -json ./...` emits machine-readable findings.
# -strict-suppressions keeps //parsivet: audit comments honest by failing on
# stale ones; -time records the lint wall time on stderr.
# The first grep step keeps tier-1 a function of the commit: a testing/quick
# property seeded from the clock (a nil Config, or a one-line Config literal
# without Rand) tests different inputs on every run, and a failure cannot be
# replayed from its log. The second keeps the distribution rule's executor
# single (DESIGN §19): outside the rule itself (internal/trace), its one
# executor (rank.Context.Evaluate) and the accounting (internal/obs), no
# product code asks trace.Distributed.
lint:
	$(GO) run ./cmd/parsivet -time -strict-suppressions ./...
	@out="$$(grep -rnE --include='*_test.go' 'quick\.Check(Equal)?\(.*, nil\)|quick\.Config\{' . | grep -v 'Rand:')"; \
	if [ -n "$$out" ]; then \
		echo "testing/quick seeded from the clock; give its Config a fixed Rand:"; echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rnF --include='*.go' --exclude='*_test.go' 'trace.Distributed(' . | grep -vE '^\./internal/(trace|rank|obs)/')"; \
	if [ -n "$$out" ]; then \
		echo "trace.Distributed asked outside its executor; score the decision through rank.Context.Evaluate:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/comm/ ./internal/splits/ ./internal/pool/ ./internal/obs/ \
		./internal/core/ ./internal/ganesh/ ./internal/wire/ ./internal/jobs/ \
		./internal/serve/ ./cmd/parsimoned/ \
		./internal/cluster/ ./internal/consensus/ ./internal/matrix/ \
		./internal/tree/ ./internal/module/ ./internal/dataset/

# The fault-injection, crash-recovery, and cancellation suite, race-enabled:
# injected crashes/delays/drops in comm and in the dynamic split exchange,
# the supervised restart-from-checkpoint acceptance tests and the restart
# seam (core.Supervise), the cancel-at-every-check matrix, and the job
# runtime's retry, backoff and drain-under-fault races.
faults:
	$(GO) test -race -run 'Fault|Recovery|Abort|Timeout|Failpoint|Restart|Checkpoint|Cancel|Drain|Deadline|Supervis|Retry|Backoff' \
		./internal/comm/ ./internal/splits/ ./internal/core/ ./internal/jobs/

# The pins a result-preserving change must leave green, by name: the split
# marginals of the stream layout (splits), the regulator recovery, the four
# telemetry digests, the run key and the wire bytes (core), the consensus
# golden record and the reference engine's exact match. `make pins` green
# is "no pin moved"; a change that moves one says which and why.
pins:
	$(GO) test -count=1 -v -run '^(TestPairMarginalsMatchPerCandidateLayout|TestRegulatorRecoveryNoWorse|TestClusterShapedTelemetryPinned|TestRunKeyPinned|TestWireBytesPinned|TestGolden|TestExactMatchWithOptimizedEngine)$$' \
		./internal/splits/ ./internal/core/ ./internal/consensus/ ./internal/ltbaseline/

# Seeded chaos soak: the deterministic MRG3-driven matrix of (world size,
# cancel point, exchange per leg, injected comm crash) combinations, each
# required to land on the bit-identical network directly or after a resume.
# Scale with SOAK_ITERS; the same seed replays the same plan sequence.
soak:
	PARSIMONE_SOAK_ITERS=$(SOAK_ITERS) $(GO) test -race -run 'TestSoakCancelFaultChaos' -v ./internal/core/

# Short native-fuzzing pass over the TSV codec (the long-running campaign
# is `go test -fuzz=FuzzReadTSV ./internal/dataset/` without -fuzztime) —
# the reader against the one it replaced, and the writer's bytes and round
# trip against the old writer — plus the wire-format deserializers,
# Uniform.Fill against element-wise Draw on both batch generators (the
# portable one and the vector kernel) over arbitrary states, bounds and
# sizes, the daemon's JSON request bodies: any submit or predict body
# is answered 200, 400 or (submit, on a drained server) 503, and none
# panics; and the data envelope: a data set of any shape and cells (±Inf,
# NaN, ±10³⁰⁰, subnormals, the clipping bound ± one ulp) is refused by the
# engine's data check or prepared into cells within ±score.MaxAbsCell.
fuzz: fuzz-wire
	$(GO) test -run '^$$' -fuzz 'FuzzReadTSV$$' -fuzztime 10s ./internal/dataset/
	$(GO) test -run '^$$' -fuzz 'FuzzTSVRoundTrip$$' -fuzztime 10s ./internal/dataset/
	$(GO) test -run '^$$' -fuzz 'FuzzFillMatchesDraw$$' -fuzztime 10s ./internal/prng/
	$(GO) test -run '^$$' -fuzz 'FuzzJobRequest$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz 'FuzzPredictRequest$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz 'FuzzPrepare$$' -fuzztime 10s ./internal/core/

# Short native-fuzzing pass over the binary wire format (DESIGN §12): the
# checkpoint read path (the refusal of non-wire files, the binary codecs)
# and the network deserializers. No input may panic, and any network that
# decodes must validate. One invocation per target (go test allows a single
# -fuzz match per run); seed corpora live in testdata/fuzz/.
fuzz-wire:
	$(GO) test -run '^$$' -fuzz 'FuzzWireCheckpoint$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz 'FuzzWireNetwork$$' -fuzztime 10s ./internal/result/

# Short native-fuzzing pass over the score quantizers every selection path
# shares — no panics on NaN/±Inf/subnormals, weights on [0, MaxWeight], and
# monotone mappings — the precomputed scoring kernel's bit-identity with
# Prior.LogML over arbitrary Stats and priors, its batched evaluation's with
# Kernel.LogML on both paths (the fused AVX2 pass, DESIGN §30, and the
# portable loop), the certified split decision's agreement with the exact
# expression it stands for (DESIGN §23), the split kernel's lanes against
# that decision on both paths (§29), and the attach-var gains on both
# gather paths, read off the observation layout that is every partition's
# membership record, against the scalar GainAttachVar (§30).
# One invocation per target (go test allows a single -fuzz match per run).
fuzz-score:
	$(GO) test -run '^$$' -fuzz 'FuzzQuantizeWeights$$' -fuzztime 10s ./internal/score/
	$(GO) test -run '^$$' -fuzz 'FuzzQuantizeProb$$' -fuzztime 10s ./internal/score/
	$(GO) test -run '^$$' -fuzz 'FuzzKernelLogML$$' -fuzztime 10s ./internal/score/
	$(GO) test -run '^$$' -fuzz 'FuzzKernelLogMLBatch$$' -fuzztime 10s ./internal/score/
	$(GO) test -run '^$$' -fuzz 'FuzzMemoLogML$$' -fuzztime 10s ./internal/score/
	$(GO) test -run '^$$' -fuzz 'FuzzSplitImproves$$' -fuzztime 10s ./internal/score/
	$(GO) test -run '^$$' -fuzz 'FuzzSplitsImprove$$' -fuzztime 10s ./internal/score/
	$(GO) test -run '^$$' -fuzz 'FuzzGainsAttachVar$$' -fuzztime 10s ./internal/cluster/

# Regenerate the full reduced-scale reproduction of the paper's tables and
# figures (minutes). Performance is the other harness: `go run ./benchmark`.
bench:
	$(GO) run ./cmd/benchtab all

# The core layer witness: a cluster-shaped learn (480×32, three GaneSH runs)
# through Learn's one-rank world (Seq), two ranks (P2) and two pool workers
# (W2). P2 runs its GaneSH runs on two rank groups (DESIGN §3), a layout no
# benchmark workload reaches: they all run at p=1 or G=1. Below it, the
# layers of the batched gain kernel (DESIGN §28, §30): one GaneSH run at
# 480×32, and at yeast's m = 2577 one run on 32 variables and the module
# sampler over 2, 8 and 32 (the observation layout's upkeep, whose moves
# and merges weigh most there); one attach-var decision at its measured
# shape in ns/gain and ns/cell on each gather path; the block scoring in
# ns/block on the portable loop and on the AVX2 pass; the scoring kernel's
# table build at 2²⁰ counts in ns/count and bytes/count beside one scalar
# Kernel.LogML, which derives αN, λ₀·n, 2·(λ₀+n) and c3 from the count
# (DESIGN §11); then the split layer
# (DESIGN §29): one evaluator sweep over every candidate, and a pair-step's
# decisions in ns/decision on each path at 1, 2, 3, 6 and 64 lanes.
bench-core:
	$(GO) test -run '^$$' -bench 'LearnClusterShaped' -benchtime 10x -count 5 ./internal/core/
	$(GO) test -run '^$$' -bench 'Run480x32$$|Run32x2577$$|SampleObs32x2577' -benchtime 10x -count 5 ./internal/ganesh/
	$(GO) test -run '^$$' -bench 'GainsAttachVar' -count 5 ./internal/cluster/
	$(GO) test -run '^$$' -bench 'LogMLBatch' -count 5 ./internal/score/
	$(GO) test -run '^$$' -bench 'NewKernel$$|LogML$$' -count 5 ./internal/score/
	$(GO) test -run '^$$' -bench 'Posterior' -count 5 ./internal/splits/
	$(GO) test -run '^$$' -bench 'SplitImproves/batch' -count 5 ./internal/score/

# The repo benchmark's `cluster` workload (GaneSH + consensus ~80 % of the
# learn) as a traced run: learn_s next to the per-layer clocks
# (consensus.cluster_s, ganesh.run_s, …) and the exact work counts they must
# be read against (consensus.iters, ganesh.decisions, core.pool_cost).
bench-cluster:
	$(GO) run ./benchmark -workload cluster -trace

# The `hybrid` workload as a traced run: the same learns through the p=2
# static exchange (the `gather` and `scan` shapes, both the segmented scan),
# the p=3 dynamic exchange and W=2 workers
# (splits.gather_s, splits.scan_s, splits.dynamic_s, pool.w2_s, speedup_2)
# beside the messages each shape sent (comm.*_collectives, comm.*_sends).
bench-hybrid:
	$(GO) run ./benchmark -workload hybrid -trace

# Boot the parsimoned daemon on an ephemeral port, drive one tiny learn job
# end-to-end through its HTTP surface (submit → long-poll done → download +
# decode the binary network → predict), and drain. Exits non-zero on any
# failure.
serve-smoke:
	$(GO) run ./cmd/parsimoned -addr 127.0.0.1:0 -smoke

# Non-test source lines outside benchmark/ — the size count CHANGES.md
# quotes before and after each change: Go, the assembly kernels (.s and
# their .h include files), and their total, one per line.
loc:
	@go=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l); \
	asm=$$(find . \( -name '*.s' -o -name '*.h' \) ! -path './benchmark/*' | xargs cat | wc -l); \
	echo "go $$go"; echo "asm $$asm"; echo "total $$((go + asm))"
