# Tier-1 gate and common entry points. `make check` is what CI runs and
# what a change must pass before it lands (see README "Testing").

.PHONY: check build test race vet lint bench bench-smoke bench-gate same-output

check:
	./scripts/check.sh

vet:
	go vet ./...

# go vet + afvet, the project's own static-analysis suite (DESIGN.md §9).
# The subcommand lives in check.sh so `make check` and `make lint` agree.
lint:
	./scripts/check.sh lint

build:
	go build ./...

test:
	go test ./...

# The race package lists live in check.sh (single source of truth).
race:
	./scripts/check.sh race

bench:
	go test -bench=. -benchmem ./...

# One iteration of every benchmark: cheap proof they still run.
bench-smoke:
	go test -run '^$$' -bench=. -benchtime=1x ./...

# Figure benchmarks -> BENCH_results.json, gated vs BENCH_baseline.json.
bench-gate:
	./scripts/bench.sh

# Compare afsim/afqa stdout between REV (default HEAD) and the working tree.
REV ?= HEAD
same-output:
	./scripts/sameout.sh $(REV)
