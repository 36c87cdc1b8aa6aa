# bgpsim — build, test and reproduction targets.

GO ?= go

.PHONY: all build test vet lint race stress worktree-check chaos replay-check serve-check vulncheck fuzz bench reproduce reproduce-paper-scale clean

all: build test

build:
	$(GO) build ./...

test: lint
	$(GO) vet ./...
	$(GO) test ./...

# bgplint: the repository's own go/analysis suite (internal/lint) enforcing
# the determinism and concurrency invariants — sorted map walks and no wall
# clock in the determinism closure, no global math/rand, typed ASN
# conversions, no dropped module errors, no blocking ops under a mutex, no
# unjoined goroutines, no per-iteration allocation in //bgplint:hotpath
# loops. The first two runs emit the machine-readable reports (JSON for
# tooling, SARIF for GitHub code scanning) regardless of findings — CI
# uploads bgplint.sarif even on a red run — and the final plain-text run
# is the gate that fails the build.
lint:
	-@$(GO) run ./cmd/bgplint -sarif ./... > bgplint.sarif 2>/dev/null
	-@$(GO) run ./cmd/bgplint -json ./... > bgplint.json 2>/dev/null
	$(GO) run ./cmd/bgplint ./...

# Full test suite under the race detector (the feed collector and hijack
# sweep are the concurrent subsystems of record).
race:
	$(GO) test -race ./...

# Stress lane for the concurrent surfaces — the sweep runtime's reorder
# window sized in whole lane batches, per-cell progress from per-batch
# workers, lowest-cell-first errors, hijackd's worker pool and epoch
# drain, and the live feed's sessions and firehose backpressure — where
# a scheduling-dependent bug shows once in many runs
# (.github/workflows/stress.yml runs it weekly).
stress:
	$(GO) test -race -count=50 ./internal/sweep ./internal/hijack ./internal/queryd ./internal/feed ./internal/firehose

# Tier-1 verify (build + tests) in a fresh git worktree of HEAD, where
# only committed files exist — catches fixtures hidden by .gitignore.
worktree-check:
	scripts/check_clean_worktree.sh

# Deterministic fault-injection soak: the live feed pipeline pushed
# through a chaotic transport (resets, truncation, corruption, stalls)
# at two fixed seeds must produce the exact alert set of a fault-free
# run — under the race detector, since reconnect storms are the
# concurrency stress of record. The firehose soak replays the checked-in
# MRT incident fixture through the same weather.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/ -args -chaos.seed=1
	$(GO) test -race -count=1 ./internal/chaos/ -args -chaos.seed=7
	$(GO) test -race -count=1 ./internal/firehose/ -run ChaosSoak -args -firehose.seed=1
	$(GO) test -race -count=1 ./internal/firehose/ -run ChaosSoak -args -firehose.seed=42

# Replay the checked-in incident fixture end to end through cmd/mrtreplay
# and compare the alert-set digest to the pinned value.
replay-check:
	scripts/check_incident_replay.sh

# hijackd lifecycle smoke test: start the query daemon on a fixture
# world, exercise every endpoint, reload (epoch bump), SIGTERM with a
# query in flight (must be answered before the drain line prints).
serve-check:
	scripts/check_hijackd_smoke.sh

# Known-vulnerability scan; skips gracefully where govulncheck (or the
# network it needs) is unavailable, e.g. offline build containers.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Short fuzz pass over every parser, and the differential targets that
# hold the sibling contraction to its map-based reference and Solver,
# Engine and DeltaSolver to one answer (CI-friendly).
fuzz:
	$(GO) test ./internal/bgpwire -fuzz FuzzUnmarshal -fuzztime 15s
	$(GO) test ./internal/bgpwire -fuzz FuzzFrameReader -fuzztime 10s
	$(GO) test ./internal/prefix  -fuzz FuzzParse     -fuzztime 10s
	$(GO) test ./internal/topology -fuzz FuzzParse    -fuzztime 10s
	$(GO) test ./internal/topology -fuzz FuzzContractSiblings -fuzztime 10s
	$(GO) test ./internal/irr     -fuzz FuzzParse     -fuzztime 10s
	$(GO) test ./internal/recio   -fuzz FuzzDecode    -fuzztime 10s
	$(GO) test ./internal/mrt     -fuzz FuzzMRTReader -fuzztime 10s
	$(GO) test ./internal/core    -fuzz FuzzSolverEquivalence -fuzztime 10s

# One benchmark per paper table/figure; metrics double as reproduction
# evidence (see EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# Every figure and table at the default working scale.
reproduce:
	scripts/reproduce.sh 10000 reproduction

# The paper's own dimensions (42,697 ASes); takes minutes on one core.
reproduce-paper-scale:
	scripts/reproduce.sh 42697 reproduction-full

clean:
	rm -rf reproduction reproduction-full polar-frames view.mrt bgplint.json bgplint.sarif
