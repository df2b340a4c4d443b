# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test bench bench-json figs figs-full fuzz crashfuzz faultfuzz campaign check serve-check bench-check cover clean metrics-demo

# The canonical benchmark set persisted to BENCH_$(BENCH_REV).json; keep in
# sync with the `canonical` list in cmd/benchjson.
BENCH_REV ?= 3
BENCH_PATTERN = HotWritePath|HotReadPath|MACBatchWindow|RunUnsharded|RunSchemes|RunSharded|SplitterEpoch|SnapshotSave|SnapshotLoad|GCSweepBuild|SCSweepBuild|ServePath

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

bench:
	go test -bench=. -benchmem .

# Persist the canonical hot-path benchmark series as a machine-readable
# trajectory point, then verify the document is complete before it can be
# committed.
bench-json:
	go test -run NONE -bench '$(BENCH_PATTERN)' -benchmem . \
		| go run ./cmd/benchjson -o BENCH_$(BENCH_REV).json
	go run ./cmd/benchjson -verify BENCH_$(BENCH_REV).json

figs:
	go run ./cmd/benchfigs

figs-full:
	go run ./cmd/benchfigs -scale full | tee figs_full.txt

fuzz:
	go test -fuzz=FuzzSplitIncrementMonotone -fuzztime=20s ./internal/counter
	go test -fuzz=FuzzReadFile -fuzztime=20s ./internal/trace
	go test -fuzz=FuzzSplitterRoundTrip -fuzztime=20s ./internal/trace
	go test -fuzz=FuzzRecordReplay -fuzztime=20s ./internal/crashfuzz
	go test -fuzz=FuzzFaultRecovery -fuzztime=20s ./internal/crashfuzz
	go test -fuzz=FuzzSnapshotRoundTrip -fuzztime=20s ./internal/snapshot
	go test -fuzz=FuzzReadEnvelope -fuzztime=20s ./internal/snapshot
	go test -fuzz=FuzzCampaignSchedule -fuzztime=20s ./internal/campaign

# Short deterministic crash-point fault-injection sweep: every scheme,
# pinned seeds, torn-write detection demo included.
crashfuzz:
	go run ./cmd/crashfuzz -scheme steins-gc -workload pers_queue -crashes 100 -seed 1 -q
	go run ./cmd/crashfuzz -scheme steins-sc -workload pers_queue -crashes 100 -seed 1 -q
	go run ./cmd/crashfuzz -scheme steins-sc -workload pers_hash -crashes 60 -seed 2 -q
	go run ./cmd/crashfuzz -scheme asit -workload pers_queue -crashes 40 -seed 3 -q
	go run ./cmd/crashfuzz -scheme star -workload pers_queue -crashes 40 -seed 4 -q
	go run ./cmd/crashfuzz -scheme scue -workload pers_queue -crashes 25 -seed 5 -q
	go run ./cmd/crashfuzz -scheme bmt -workload pers_queue -crashes 40 -seed 6 -q
	go run ./cmd/crashfuzz -scheme pipesit -workload pers_queue -crashes 25 -seed 7 -q
	go run ./cmd/crashfuzz -scheme pipesit-sc -workload pers_hash -crashes 20 -seed 8 -q
	go run ./cmd/crashfuzz -scheme triad -workload pers_queue -crashes 40 -seed 9 -q
	go run ./cmd/crashfuzz -scheme triad-sc -workload pers_hash -crashes 30 -seed 10 -q

# Differential media-fault sweep: seeded fault model (transient flips,
# stuck cells, torn crash writes) + deliberate interior-node corruption,
# pinned seeds. Steins schemes heal in degraded mode; the rest must
# quarantine or reject with a classified error — never corrupt silently.
faultfuzz:
	go run ./cmd/crashfuzz -scheme steins-gc -workload pers_hash -crashes 5 -seed 3 \
		-faults 'transient=1e-3,double=0.25,stuck=1e-4,torn=0.25' -corrupt 2 -degraded -q
	go run ./cmd/crashfuzz -scheme steins-sc -workload pers_hash -crashes 5 -seed 4 -footprint 1048576 \
		-faults 'transient=1e-3,double=0.25,stuck=1e-4' -corrupt 3 -degraded -q
	go run ./cmd/crashfuzz -scheme steins-sc -workload pers_queue -crashes 6 -seed 5 \
		-faults 'transient=2e-3,double=0.5,torn=0.5' -q
	go run ./cmd/crashfuzz -scheme asit -workload pers_hash -crashes 4 -seed 6 \
		-faults 'transient=1e-3,double=0.25' -corrupt 1 -degraded -q
	go run ./cmd/crashfuzz -scheme star -workload pers_hash -crashes 4 -seed 7 \
		-faults 'transient=1e-3,double=0.25' -corrupt 1 -degraded -q
	go run ./cmd/crashfuzz -scheme scue -workload pers_queue -crashes 3 -seed 8 \
		-faults 'transient=1e-3,double=0.25' -corrupt 1 -degraded -q
	go run ./cmd/crashfuzz -scheme bmt -workload pers_queue -crashes 4 -seed 9 \
		-faults 'transient=1e-3,double=0.25,stuck=1e-4' -q
	go run ./cmd/crashfuzz -scheme steins-gc -workload pers_queue -crashes 6 -seed 10 \
		-faults 'transient=5e-3' -ecc=false -q
	go run ./cmd/crashfuzz -scheme pipesit -workload pers_queue -crashes 3 -seed 11 \
		-faults 'transient=1e-3,double=0.25' -corrupt 1 -degraded -q
	go run ./cmd/crashfuzz -scheme triad-sc -workload pers_queue -crashes 3 -seed 12 \
		-faults 'transient=1e-3,double=0.25' -corrupt 1 -degraded -q

# Deterministic adversarial campaign: 5040 randomized hostile cases across
# all 12 schemes × 1/2/4 channels, run twice (-verify demands byte-identical
# reports) under the zero-silent-corruption contract, then a byte-compared
# degraded-tamper slice (-degraded forces every case through the evidence-
# arbitration/quarantine path with the full tamper grammar), then a
# deliberate corruption whose repro artifact must replay (-repro) to the
# identical classification.
campaign:
	go run ./cmd/campaign -cases 5040 -seed 1 -selfcheck-every 250 -verify -q
	go run ./cmd/campaign -cases 1260 -seed 3 -degraded -selfcheck-every 0 -verify -q
	go run ./cmd/campaign -seed 2 -selfcheck campaign_selfcheck.repro -q
	go run ./cmd/campaign -repro campaign_selfcheck.repro
	rm -f campaign_selfcheck.repro

# Phase-attribution + occupancy snapshots for one run and one sweep.
metrics-demo:
	go run ./cmd/steinssim -workload cactusADM -scheme Steins-GC -ops 20000 -metrics metrics_demo.json
	go run ./cmd/benchfigs -fig 12 -metrics metrics_demo.csv

# CI gate: vet, the crash harness, the media-fault sweep, and the
# race-sensitive packages (figure sweeps and parallel recovery under both
# GOMAXPROCS settings). The sharded engine and conformance suite
# additionally run at -cpu 1,2,8 to pin bit-identical results across
# worker-pool widths, together with the one-channel identity, the typed
# address errors and the campaign's routing test (the attack and server
# callers of the shared address-routing function already run raced in
# full, in the race-sensitive set and in serve-check). The
# checkpoint/resume suites run raced and twice (-count=2) to pin
# byte-determinism of the snapshot wire format. The quarantine/re-admission
# suites (evidence-arbitrated degraded recovery) run raced at -cpu 1,4
# across the steins policy, the controller and the campaign's
# replay-boundary repro artifacts. Every go test runs -shuffle=on so
# order-dependent tests cannot hide. The committed BENCH
# document is re-verified so the persisted trajectory can never drift out
# of sync with the canonical benchmark set.
# Serving-layer gate: the linearization differential, crash-mid-serve
# checkpoint/restart, admission property and daemon suites, plus the HTTP
# conformance drive (all 12 schemes × 1/2/4 channels) and the concurrent
# engine hammer — raced, shuffled, across -cpu 1,4,8 so the linearization
# argument is exercised under every worker-pool width.
serve-check:
	go test -shuffle=on -race -cpu 1,4,8 ./internal/server ./cmd/securememd
	go test -shuffle=on -race -cpu 1,4,8 \
		-run 'HTTPConformance|ConcurrentHammer|ChannelsDataPlane|ChannelsValidation' ./securemem

# The benchmark under bench/ is a module of its own, so the root
# `go vet ./...` and `go test ./...` do not descend into it: vet and test it
# in place (its sabotage oracle, golden simulator figures and metric-table
# checks).
bench-check:
	cd bench && go vet ./... && go test ./...

check: crashfuzz faultfuzz serve-check bench-check
	go vet ./...
	go test -shuffle=on -race -cpu 1,4 ./internal/crashfuzz ./internal/figures \
		./internal/metrics ./internal/sim ./internal/multi \
		./internal/nvmem ./internal/memctrl ./internal/attack
	go test -shuffle=on -race -cpu 1,4 -run 'Quarantine|Readmission|Degraded|Heal|ReplayBoundary' \
		./internal/scheme/steins ./internal/memctrl ./internal/campaign
	go test -shuffle=on -race -cpu 1,2,8 -run 'Sharded|Conformance|Splitter|Interleave|NextEpoch|Replay|RecoverAll|DriveStream|OneChannelMatchesBareController|AddressErrors|BadAddressTypedError' \
		./internal/sim ./internal/trace ./internal/multi ./internal/scheme/schemetest ./securemem
	go test -shuffle=on -race -cpu 1,2,8 -run 'Routing' ./internal/campaign
	go test -shuffle=on -race -cpu 1,4 -run 'Resume|Snapshot|Campaign|Checkpoint|Artifact|SelfCheck' \
		./internal/snapshot ./internal/scheme/schemetest ./internal/crashfuzz \
		./internal/campaign ./cmd/campaign ./cmd/steinssim
	go test -shuffle=on -count=2 ./internal/snapshot ./internal/scheme/schemetest ./internal/campaign
	go test -shuffle=on ./cmd/benchjson
	go run ./cmd/benchjson -verify BENCH_$(BENCH_REV).json

cover:
	go test -cover ./...

clean:
	rm -f test_output.txt bench_output.txt metrics_demo.json metrics_demo.csv
