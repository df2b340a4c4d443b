# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test bench bench-json figs figs-full figs-check fuzz campaign check serve-check bench-check cover clean metrics-demo

# The canonical benchmark set persisted to BENCH_$(BENCH_REV).json; keep in
# sync with the `canonical` list in cmd/benchjson.
BENCH_REV ?= 4
BENCH_PATTERN = HotWritePath|HotReadPath|RunSchemes|RunSharded|SplitterEpoch|SnapshotSave|SnapshotLoad|GCSweepBuild|SCSweepBuild|ServePath|RecoveryDowntime

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
# committed. Five samples per benchmark give benchjson a median and an
# interquartile spread. Compare two points with
# `go run ./cmd/benchjson -compare BENCH_3.json BENCH_4.json`.
bench-json:
	go test -run NONE -bench '$(BENCH_PATTERN)' -benchmem -count 5 . \
		| go run ./cmd/benchjson -o BENCH_$(BENCH_REV).json
	go run ./cmd/benchjson -verify BENCH_$(BENCH_REV).json

figs:
	go run ./cmd/benchfigs

figs-full:
	go run ./cmd/benchfigs -scale full | tee figs_full.txt

# The paper-scale figures must still match the archive byte for byte
# (~70 s on 2 vCPUs); the Quick-scale values are pinned in go test by
# internal/figures/testdata/quick.json.
figs-check:
	go run ./cmd/benchfigs -scale full | diff -u figs_full.txt -

fuzz:
	go test -fuzz=FuzzSplitIncrementMonotone -fuzztime=20s ./internal/counter
	go test -fuzz=FuzzReadFile -fuzztime=20s ./internal/trace
	go test -fuzz=FuzzSplitterRoundTrip -fuzztime=20s ./internal/trace
	go test -fuzz=FuzzRunCase -fuzztime=20s ./internal/campaign
	go test -fuzz=FuzzRecordReplay -fuzztime=20s ./internal/campaign
	go test -fuzz=FuzzSnapshotRoundTrip -fuzztime=20s ./internal/snapshot
	go test -fuzz=FuzzReadEnvelope -fuzztime=20s ./internal/snapshot
	go test -fuzz=FuzzCampaignSchedule -fuzztime=20s ./internal/campaign
	go test -fuzz=FuzzBatchBody -fuzztime=20s ./internal/server
	go test -fuzz=FuzzSearchCounter -fuzztime=20s ./internal/crypt
	go test -fuzz=FuzzServerCheckpoint -fuzztime=20s -fuzzminimizetime=100x ./internal/server

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

# CI gate: vet, the adversarial campaign (the crash, media-fault and tamper
# harness), the paper-scale figure archive, and the race-sensitive packages
# (figure sweeps and parallel recovery under both GOMAXPROCS settings). The
# campaign's hand-built crash-point cases (every-Nth-event sweeps, the
# per-scheme torture and torn-line cases, the FuzzRunCase and
# FuzzRecordReplay seeds) run raced
# at -cpu 1,4. The sharded engine and conformance suite
# additionally run at -cpu 1,2,8 to pin bit-identical results across
# worker-pool widths, together with the one-channel identity, the typed
# address errors, the routing-map tests of the trace package and the
# server, and the campaign's routing test (the attack caller of the shared
# address-routing function already runs raced in full, in the
# race-sensitive set). The
# checkpoint/resume suites run raced and twice (-count=2) to pin
# byte-determinism of the snapshot wire format and of steinssim's report
# across fresh, checkpointed and resumed runs. The quarantine/re-admission
# suites (evidence-arbitrated degraded recovery) run raced at -cpu 1,4
# across the steins policy, the controller and the campaign's
# replay-boundary repro artifacts. The recovery counter searches (the
# SipHash prefix-cached fast path against the one-MAC-per-candidate loop)
# run raced at -cpu 1,4, together with the SipHash vectors, the hint-first
# split-counter recovery against the plain 64-candidate search, and the
# Steins recovery suites over the dense recovery bookkeeping. The
# checkpoint restore suites (crafted tables
# refused entry by entry, the sectioned server payload, the layout
# fixtures, byte-stable Save → Load → Restore → Save, the daemon's refusal
# of a crafted checkpoint) run raced at -cpu 1,4. Every go test runs -shuffle=on so
# order-dependent tests cannot hide. The committed BENCH
# document is re-verified so the persisted trajectory can never drift out
# of sync with the canonical benchmark set.
# Serving-layer gate: the linearization differential, crash-mid-serve
# checkpoint/restart, admission property, flat-combining liveness, /batch
# codec (FuzzBatchBody's seeds, reply byte-identity) and daemon suites,
# plus the HTTP conformance drive (all 12 schemes × 1/2/4 channels) and the
# concurrent engine hammer — raced, shuffled, across -cpu 1,4,8 so the
# linearization argument is exercised under every worker-pool width. The
# allocation ceilings build only without -race; `go test ./...` runs them.
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

check: campaign serve-check bench-check figs-check
	go vet ./...
	go test -shuffle=on -race -cpu 1,4 ./internal/figures \
		./internal/metrics ./internal/sim ./internal/multi \
		./internal/nvmem ./internal/memctrl ./internal/attack
	go test -shuffle=on -race -cpu 1,4 -run 'Sweep|Torture|TornDataFlip|CrashSeedsCommit|FuzzRunCase|FuzzRecordReplay' \
		./internal/campaign
	go test -shuffle=on -race -cpu 1,4 -run 'Quarantine|Readmission|Degraded|Heal|ReplayBoundary' \
		./internal/scheme/steins ./internal/memctrl ./internal/campaign
	go test -shuffle=on -race -cpu 1,4 -run 'Search|Recover|SipHash' ./internal/crypt ./internal/cme \
		./internal/scheme/steins
	go test -shuffle=on -race -cpu 1,2,8 -run 'Sharded|Conformance|Splitter|Interleave|NextEpoch|Replay|SystemRecover|DriveStream|OneChannelMatchesBareController|AddressErrors|BadAddressTypedError|Route' \
		./internal/sim ./internal/trace ./internal/multi ./internal/scheme/schemetest ./securemem \
		./internal/server
	go test -shuffle=on -race -cpu 1,2,8 -run 'Routing' ./internal/campaign
	go test -shuffle=on -race -cpu 1,4 -run 'Resume|Snapshot|Campaign|Checkpoint|Artifact|SelfCheck' \
		./internal/snapshot ./internal/scheme/schemetest \
		./internal/campaign ./cmd/campaign ./cmd/steinssim
	go test -shuffle=on -count=2 ./internal/snapshot ./internal/scheme/schemetest ./internal/campaign \
		./cmd/steinssim
	go test -shuffle=on -race -cpu 1,4 -run 'Restore|Checkpoint|Layout|SetState' ./internal/nvmem \
		./internal/memctrl ./internal/cache ./internal/snapshot ./internal/server ./cmd/securememd
	go test -shuffle=on ./cmd/benchjson
	go run ./cmd/benchjson -verify BENCH_$(BENCH_REV).json

cover:
	go test -cover ./...

clean:
	rm -f test_output.txt bench_output.txt metrics_demo.json metrics_demo.csv
