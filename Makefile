GO ?= go

.PHONY: check vet doclint build test race chaos lowmem bigtable benchsmoke opbench cover e2e experiments fuzz

## check: the full tier-1 gate — vet, the doc-comment lint, build, the test
## suite under -race, the chaos (kill/join) suite, the low-memory suite, the
## big-table streaming-scan scenario, and the end-to-end benchmark's own vet
## and smoke tests.
check: vet doclint build race chaos lowmem bigtable benchsmoke

vet:
	$(GO) vet ./...

## doclint: fail on exported identifiers without doc comments, and on a
## backticked file, selector, call or test name in DESIGN.md,
## docs/OPERATIONS.md or README.md that the tree does not declare.
doclint:
	$(GO) run ./cmd/doclint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## chaos: the elastic-cluster regression suite — evaluators killed and added
## mid-query under the race detector, twice, asserting exact results.
chaos:
	$(GO) test ./internal/chaos/ -race -count=2

## lowmem: the services and chaos suites — in-process coordinators and the
## TCP coordinator/evaluator deployment alike — with a 64KiB per-query memory
## budget forced on every test configuration that sets none of its own, so
## the stateful queries that outgrow it exercise the grace-hash spill path:
## first with the classic serial drivers, then again with width-4 morsel
## worker pools spilling concurrently under the one shared budget. The two
## variables are read by internal/testenv, which only _test.go files import;
## production code never reads them. TestStoredTableQueryMatchesInMemory fails either
## pass if the forced budget spilled nothing.
lowmem:
	GRIDDQP_FORCE_MEM_BUDGET=65536 $(GO) test ./internal/services/ ./internal/chaos/ -count=1
	GRIDDQP_FORCE_MEM_BUDGET=65536 GRIDDQP_FORCE_PARALLEL=4 $(GO) test ./internal/services/ ./internal/chaos/ -count=1

## bigtable: the streaming-scan acceptance scenario — posix-stored tables
## at least 16x the query memory budget, drained through the join+aggregate
## demo query, asserting byte-identical rows, zero leaked spill runs, and
## zero inflight budget bytes. GRIDDQP_BIGTABLE_ROWS scales the stored
## tables (default 3000 rows; set six or seven figures for a multi-GB run).
bigtable:
	$(GO) test ./internal/services/ -run 'TestBigTableStoredScan' -count=1

## benchsmoke: bench/ is a module of its own, which `go build ./...` and
## `go test ./...` at the root do not reach: vet it and run every workload of
## the end-to-end benchmark at smoke scale (structure and correctness only).
benchsmoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## opbench: the inner loop for operator work — the stateful operators' (their
## spill paths included: HashJoinSpill, and HashAggregateSpill through the
## HashAggregate prefix), the morsel pool's and the exchange's package-local
## benchmarks with allocation counts, in seconds. Reported, never gated; a
## performance claim goes through bench/.
opbench:
	$(GO) test -run '^$$' -bench 'HashAggregate|HashJoinProbe|HashJoinSpill|FragmentParallel|ExchangeBacklog' -benchmem ./internal/engine/

## cover: statement coverage of the whole tree under the tier-1 tests, with
## -coverpkg=./... so a function counts as run whichever package's tests
## reach it. A gate: it prints every function left at 0.0% outside cmd/ and
## internal/exp/ and fails if any of them is missing from COVER_ALLOW, then
## prints their count and the total. Not part of check; CI runs it in its
## check job.
cover:
	$(GO) test -count=1 -coverpkg=./... -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | awk -v allow="$(COVER_ALLOW)" ' \
		BEGIN { split(allow, a, " "); for (i in a) ok[a[i]] = 1 } \
		/^total:/ { total = $$NF; next } \
		$$NF == "0.0%" && $$1 !~ /^repro\/(cmd|internal\/exp)\// { \
			f = $$1; sub(/:[0-9]+:$$/, "", f); n++; \
			if ((f ":" $$2) in ok) print $$0 "  (allowlisted)"; else { print $$0 "  NOT ALLOWLISTED"; bad++ } } \
		END { printf "%d functions at 0.0%% outside cmd/ and internal/exp/ (%d not allowlisted); total %s of statements\n", n, bad, total; \
			exit (bad > 0) }'

## COVER_ALLOW: the functions `make cover` lets stay at 0.0%, as
## file:function, each with its reason.
# The seven exprNode markers seal sqlparse's Expr interface; nothing calls them.
COVER_ALLOW += repro/internal/sqlparse/ast.go:exprNode
# Called only from bench/, a module of its own the coverage run does not reach.
COVER_ALLOW += repro/internal/services/cluster.go:Network repro/internal/services/cluster.go:Registry

## e2e: the repo's end-to-end benchmark exactly as BENCHMARK.json runs it —
## every workload at full scale in real wall-clock, oracle-checked (minutes;
## not part of check, whose smoke-scale counterpart is benchsmoke). For one
## workload or other flags call bench/run.sh directly (bench/README.md).
e2e:
	bash bench/run.sh

## experiments: regenerate EXPERIMENTS.md (several minutes).
experiments:
	$(GO) run ./cmd/dqp-experiments

## fuzz: a short fuzzing pass over the normalizer, the tuple codec and the
## wire-message decoder.
fuzz:
	$(GO) test ./internal/sqlparse/ -fuzz FuzzNormalizeSQL -fuzztime 30s
	$(GO) test ./internal/relation/ -fuzz FuzzTupleCodecRoundTrip -fuzztime 30s
	$(GO) test ./internal/transport/ -fuzz FuzzUnmarshalMessage -fuzztime 30s
