# The ring and tcplink code is concurrency-heavy: `make check` is the
# tier-1 gate (see ROADMAP.md) and runs the full suite under the race
# detector on top of build, vet and the cyclolint analyzer suite.

GO ?= go

# Ceiling for one standalone pass of the analyzer suite over ./...; the
# cyclolint target fails when analysis wall time exceeds it, so a
# quadratic fixpoint regression in an analyzer breaks the gate instead
# of quietly taxing every CI run.
LINT_BUDGET ?= 60s

.PHONY: check build vet layering lint cyclolint lint-sarif lint-stats lint-fix-clean test race stress chaos chaos-fuzz bench-metrics bench-ring bench-smoke perfbench-test bench-trace smoke-trace smoke-health

check: build vet layering lint race chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# HARNESSES are the test-only packages: fault injectors, fixtures and
# checkers that production code must never link in.
HARNESSES = cyclojoin/internal/rdma/chaoslink cyclojoin/internal/rdma/rdmatest \
	cyclojoin/internal/testutil cyclojoin/internal/join/jointest \
	cyclojoin/internal/lint/linttest

# layering fails when a non-test package imports a harness. The harnesses
# may import each other, and cmd/cyclobench, which runs the chaos tier, may
# import chaoslink. Test files are not counted: go list's .Imports
# excludes them.
layering:
	@$(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | awk -v harnesses="$(HARNESSES)" ' \
		BEGIN { n = split(harnesses, h, " "); for (i = 1; i <= n; i++) harness[h[i]] = 1 } \
		$$1 in harness || $$1 == "cyclojoin/cmd/cyclobench" { next } \
		{ for (i = 2; i <= NF; i++) if ($$i in harness) { print "layering: " $$1 " imports test harness " $$i; bad = 1 } } \
		END { exit bad }'

# lint runs the repo's own analyzer suite (see internal/lint and
# DESIGN.md §9) plus staticcheck when it is installed locally. CI runs
# staticcheck and govulncheck in a dedicated pinned job; locally they are
# optional so a bare toolchain can still run `make check`.
lint: cyclolint
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# cyclolint is driven through `go vet -vettool` so package results are
# cached by the build cache (analyzer versions are stamped into the vetx
# facts, so editing an analyzer invalidates its cache entries);
# `bin/cyclolint ./...` works standalone too, and takes -fix / -json /
# -sarif.
cyclolint:
	$(GO) build -o bin/cyclolint ./cmd/cyclolint
	$(GO) vet -vettool=$(CURDIR)/bin/cyclolint ./...
	./bin/cyclolint -stats -budget $(LINT_BUDGET) ./...

# lint-sarif renders the suite's findings as SARIF 2.1.0 for GitHub code
# scanning. The exit status is ignored: the check gate fails the build,
# this artifact only annotates the PR.
lint-sarif:
	$(GO) build -o bin/cyclolint ./cmd/cyclolint
	./bin/cyclolint -sarif ./... > cyclolint.sarif || true

# lint-stats captures the per-analyzer wall-time breakdown to
# cyclolint-stats.txt (CI uploads it as a per-run artifact) and appends
# one trend row to the committed LINT_STATS.md: date, suite version,
# analyzer count, total wall time. Run it in any PR that changes the
# suite and commit the row — the table makes wall-time creep visible
# long before the LINT_BUDGET gate trips.
lint-stats:
	$(GO) build -o bin/cyclolint ./cmd/cyclolint
	./bin/cyclolint -stats ./... 2> cyclolint-stats.txt; st=$$?; \
	cat cyclolint-stats.txt; [ $$st -eq 0 ] || exit $$st
	printf '| %s | %s | %s | %s |\n' \
		"$$(date -u +%F)" \
		"$$(./bin/cyclolint -V=full | sed 's/^cyclolint version //; s/+.*//')" \
		"$$(grep -c 'cyclolint: stats: ' cyclolint-stats.txt | awk '{print $$1 - 1}')" \
		"$$(awk '/cyclolint: stats: total/ {print $$NF}' cyclolint-stats.txt)" \
		>> LINT_STATS.md
	tail -1 LINT_STATS.md

# lint-fix-clean asserts every mechanical fix is already applied: -fix
# over the tree must be a no-op. CI runs it so a committed finding whose
# suggested fix was ignored (instead of applied or suppressed with a
# justification) fails the build.
lint-fix-clean:
	$(GO) build -o bin/cyclolint ./cmd/cyclolint
	./bin/cyclolint -fix ./... || true
	git diff --exit-code

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress reruns the concurrency-heavy packages under the race detector,
# 20 times at each of 1, 2 and 4 Ps, so a flaky test shows up in the
# change that introduces it rather than in a later unrelated run. CI runs
# it as its own job. The timeout covers the repetitions, not one test.
STRESS_PKGS = ./internal/ring/ ./internal/core/ ./internal/health/ ./internal/rdma/... ./internal/join/...
stress:
	$(GO) test -race -count=20 -cpu 1,2,4 -timeout 60m $(STRESS_PKGS)

# chaos is the fault-injection e2e tier: the seeded cyclobench scenario
# suite (drop, flap, corrupt doorbell, jitter+reorder, slow node,
# partition) against live mem and tcp rings, race-enabled. The unit- and
# package-level chaos tests (TestChaos* in ring, core, chaoslink) already
# run under `race`; this drives the same machinery through the CLI the CI
# fuzz job uses, with a pinned seed so the gate is deterministic. With
# -health every scenario also gates its live verdict: a failed link must
# read degraded on that link, a merely slow one must not.
chaos:
	$(GO) run -race ./cmd/cyclobench -chaos -health -seed 1

# chaos-fuzz explores a fresh schedule per run (seed derived from the
# clock). The full output — including the reproduce line and the failing
# schedule, if any — lands in chaos_fuzz.txt for CI to upload.
chaos-fuzz:
	$(GO) run -race ./cmd/cyclobench -chaos -seed 0 > chaos_fuzz.txt 2>&1; st=$$?; cat chaos_fuzz.txt; exit $$st

# Proves the instrumentation budget: one hot-path event must cost < 10 ns.
bench-metrics:
	$(GO) test -run NONE -bench . -benchmem ./internal/metrics/

# Proves the flight recorder budget: span begin/end on the hot path must
# not allocate (the -benchmem column must read 0 allocs/op; the zero-alloc
# guard test enforces it).
bench-trace:
	$(GO) test -run NONE -bench 'BenchmarkSpan|BenchmarkPoint' -benchmem ./internal/trace/

# End-to-end flight-recorder smoke: run a small traced 4-node ring join,
# write the Perfetto recording, and print the cyclotrace cost breakdown.
# Artifacts: flight.json (load in ui.perfetto.dev) + flight_breakdown.txt.
smoke-trace:
	$(GO) run ./cmd/roundabout -nodes 4 -tuples 50000 -threads 2 -flightrec flight.json
	$(GO) run ./cmd/cyclotrace flight.json | tee flight_breakdown.txt

# End-to-end live-health smoke: spin a small ring through many rotations
# with the metrics mux up, then follow /health/live once with cyclotop.
# The -json pass proves the SSE payload decodes end to end (the snapshot
# lands in health_snapshot.json for CI to keep); the second pass prints
# the human table into the log.
smoke-health:
	$(GO) build -o bin/roundabout ./cmd/roundabout
	$(GO) build -o bin/cyclotop ./cmd/cyclotop
	./bin/roundabout -nodes 3 -tuples 20000 -threads 2 -rotations 400 -healthint 50ms -metrics 127.0.0.1:19199 & pid=$$!; \
	./bin/cyclotop -once -json -wait 15s http://127.0.0.1:19199/health/live > health_snapshot.json; st=$$?; \
	./bin/cyclotop -once -wait 5s http://127.0.0.1:19199/health/live || true; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	cat health_snapshot.json; exit $$st

# Ring hot-path benchmarks → BENCH_ring.json (preserves the recorded
# pre-zero-copy baseline; compare with the printed summary). The forward
# staging benchmark fails outright if the little-endian fast path ever
# allocates.
bench-ring:
	$(GO) test -run NONE -bench 'BenchmarkRingHop|BenchmarkForwardStage' -benchtime 2s ./internal/ring/ > /tmp/bench_ring.$$$$.txt && \
	$(GO) test -run NONE -bench 'BenchmarkEncode|BenchmarkDecode|BenchmarkViewBind' -benchtime 2s ./internal/relation/ >> /tmp/bench_ring.$$$$.txt && \
	$(GO) run ./cmd/benchring -o BENCH_ring.json < /tmp/bench_ring.$$$$.txt; \
	rm -f /tmp/bench_ring.$$$$.txt

# Short-form zero-alloc gate for CI: one quick pass over the guarded
# hot-path benchmarks, failing on any allocs/op > 0. The full sweep that
# rewrites BENCH_ring.json stays in bench-ring.
bench-smoke:
	$(GO) test -run NONE -bench 'BenchmarkForwardStage' -benchtime 100x ./internal/ring/ > /tmp/bench_smoke.$$$$.txt && \
	$(GO) test -run NONE -bench 'BenchmarkEncode$$|BenchmarkViewBind' -benchtime 1000x ./internal/relation/ >> /tmp/bench_smoke.$$$$.txt && \
	$(GO) run ./cmd/benchring -guard BenchmarkForwardStage,BenchmarkEncode,BenchmarkViewBind < /tmp/bench_smoke.$$$$.txt; \
	status=$$?; rm -f /tmp/bench_smoke.$$$$.txt; exit $$status

# perfbench-test runs the end-to-end benchmark's self-test: every workload
# at smoke size, each op checked against the benchmark's own oracle, so a
# kernel change that breaks a workload's result fails here. perfbench is
# a module of its own, which the root `go test ./...` never reaches. The
# Go env is perfbench/run.sh's: offline, caches under .bench_build/.
BENCH_BUILD = $(CURDIR)/.bench_build
perfbench-test:
	mkdir -p $(BENCH_BUILD)/tmp
	cd perfbench && \
	GOCACHE=$(BENCH_BUILD)/gocache GOPATH=$(BENCH_BUILD)/gopath \
	GOMODCACHE=$(BENCH_BUILD)/gopath/pkg/mod GOTMPDIR=$(BENCH_BUILD)/tmp \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOSUMDB=off \
	$(GO) test ./...
