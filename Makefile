# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test bench bench-json figs figs-full figs-check fuzz campaign check serve-check bench-check cover clean metrics-demo

# The canonical benchmark set persisted to BENCH_$(BENCH_REV).json; keep in
# sync with the `canonical` list in cmd/benchjson.
BENCH_REV ?= 5
BENCH_PATTERN = HotWritePath|HotReadPath|RunSchemes|RunSharded|SplitterEpoch|SnapshotSave|SnapshotLoad|GCSweepBuild|SCSweepBuild|ServePath|RecoveryDowntime|ServerRestart

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

# Every fuzz target runs for its full time, whatever the ones before it
# found; the targets that failed are named at the end, and fail the run.
# -run keeps a failing input another target of the package wrote from
# failing this one before it starts.
fuzz:
	@failed=; \
	fuzz() { echo "go test -run ^$$1\$$ -fuzz=^$$1\$$ -fuzztime=20s $$3 $$2"; \
		go test -run "^$$1\$$" -fuzz="^$$1\$$" -fuzztime=20s $$3 $$2 || failed="$$failed $$1"; }; \
	fuzz FuzzGeneralRoundTrip ./internal/counter; \
	fuzz FuzzSplitRoundTrip ./internal/counter; \
	fuzz FuzzSplitIncrementMonotone ./internal/counter; \
	fuzz FuzzCMERoundTrip ./internal/counter; \
	fuzz FuzzReadFile ./internal/trace; \
	fuzz FuzzSplitterRoundTrip ./internal/trace; \
	fuzz FuzzRunCase ./internal/campaign; \
	fuzz FuzzRecordReplay ./internal/campaign; \
	fuzz FuzzSnapshotRoundTrip ./internal/snapshot; \
	fuzz FuzzReadEnvelope ./internal/snapshot; \
	fuzz FuzzCampaignSchedule ./internal/campaign; \
	fuzz FuzzBatchBody ./internal/server; \
	fuzz FuzzSearchCounter ./internal/crypt; \
	fuzz FuzzSum80x8 ./internal/crypt; \
	fuzz FuzzServerCheckpoint ./internal/server -fuzzminimizetime=100x; \
	fuzz FuzzLoadFile ./internal/snapshot -fuzzminimizetime=100x; \
	if [ -n "$$failed" ]; then echo "fuzz: failed:$$failed"; exit 1; fi

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

# CI gate: vet (the snapshot, arena and nvmem packages also for Windows and
# macOS, where LoadFile reads checkpoints instead of mapping them), the
# adversarial campaign (the crash, media-fault and tamper
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
# across the steins policy, the controller, the campaign's
# replay-boundary repro artifacts and ASIT's quarantine order. The recovery counter searches (the
# SipHash prefix-cached fast path against the one-MAC-per-candidate loop)
# run raced at -cpu 1,4, together with the SipHash vectors, the hint-first
# split-counter recovery against the plain 64-candidate search, the
# eight-lane SipHash (the AVX-512 kernel where the CPU has it and the
# generic loop, both against sipCore), the batched check of a split and
# a general leaf against the one-slot-at-a-time references, the Steins
# recovery suites over the dense recovery bookkeeping, and the one
# leaf-from-data reader under every pass that uses it: rebuild's
# per-slot outcomes and the Steins data-driven leaf heal. The
# checkpoint restore suites (crafted tables
# refused chunk by chunk and entry by entry, the arena's adoption of
# checkpoint blocks, every scheme's state round-tripped and its
# crafted entries refused, the sectioned run and server payload, the
# layout fixtures, byte-stable Save → Load → Restore → Save, the daemon's
# refusal of a crafted checkpoint, the mapped file loader of both kinds
# against Decode, its skeleton goroutine included, the mapping's lifetime
# over 300 restarts, the shape-first concurrent restore) run raced at
# -cpu 1,2,8, so the restore worker pool
# runs 1, 2 and 8 wide. The data-tag table is among them: since it became
# a chunk table like the device's lines and wear, its crafted-chunk
# refusals and its adoption run under the same Restore|Adopt pattern. Every go test runs -shuffle=on so
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
	GOOS=windows go vet ./internal/snapshot ./internal/arena ./internal/nvmem
	GOOS=darwin go vet ./internal/snapshot ./internal/arena ./internal/nvmem
	go test -shuffle=on -race -cpu 1,4 ./internal/figures \
		./internal/metrics ./internal/sim ./internal/multi \
		./internal/nvmem ./internal/memctrl ./internal/attack
	go test -shuffle=on -race -cpu 1,4 -run 'Sweep|Torture|TornDataFlip|CrashSeedsCommit|FuzzRunCase|FuzzRecordReplay' \
		./internal/campaign
	go test -shuffle=on -race -cpu 1,4 -run 'Quarantine|Readmission|Degraded|Heal|ReplayBoundary' \
		./internal/scheme/steins ./internal/memctrl ./internal/campaign ./internal/scheme/asit
	go test -shuffle=on -race -cpu 1,4 -run 'Search|Recover|SipHash|Sum80x8|BatchedHintCheck|SplitLeaf|LeafFromData' ./internal/crypt ./internal/cme \
		./internal/scheme/steins ./internal/scheme/rebuild
	go test -shuffle=on -race -cpu 1,2,8 -run 'Sharded|Conformance|Splitter|Interleave|NextEpoch|Replay|SystemRecover|DriveStream|OneChannelMatchesBareController|AddressErrors|BadAddressTypedError|Route' \
		./internal/sim ./internal/trace ./internal/multi ./internal/scheme/schemetest ./securemem \
		./internal/server
	go test -shuffle=on -race -cpu 1,2,8 -run 'Routing' ./internal/campaign
	go test -shuffle=on -race -cpu 1,4 -run 'Resume|Snapshot|Campaign|Checkpoint|Artifact|SelfCheck' \
		./internal/snapshot ./internal/scheme/schemetest \
		./internal/campaign ./cmd/campaign ./cmd/steinssim
	go test -shuffle=on -count=2 ./internal/snapshot ./internal/scheme/schemetest ./internal/campaign \
		./cmd/steinssim
	go test -shuffle=on -race -cpu 1,2,8 -run 'Restore|Checkpoint|Layout|SetState|Adopt|Load' ./internal/arena \
		./internal/nvmem ./internal/memctrl ./internal/cache ./internal/scheme/... ./internal/snapshot \
		./internal/server ./cmd/securememd
	go test -shuffle=on ./cmd/benchjson
	go run ./cmd/benchjson -verify BENCH_$(BENCH_REV).json

cover:
	go test -cover ./...

clean:
	rm -f test_output.txt bench_output.txt metrics_demo.json metrics_demo.csv
