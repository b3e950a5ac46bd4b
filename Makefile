# Developer entry points. Everything here is a thin wrapper over go(1)
# and the scripts/ gates so CI and local runs stay identical.

BIN        := bin
IMAGE      ?= evald
EVALD_ADDR ?= :8080
SIMD_ADDR  ?= :9090

.PHONY: build test test-full check bench-gate docker run-evald run-simd clean

# Build every command into ./bin.
build:
	go build -o $(BIN)/ ./cmd/...

# The PR-loop suite: race detector on, slow integration tests skipped.
test:
	go test -race -short ./...

# Everything, including the minutes-long bench integration tests.
test-full:
	go test -race ./...

# The full set of local gates, mirroring the CI `quick` job.
check:
	gofmt -l . | (! grep .) || (echo "gofmt needed"; exit 1)
	go vet ./...
	sh scripts/check_docs.sh
	sh scripts/check_allocs.sh
	go test -race -short ./...
	cd perfbench && go vet ./... && go test ./...

# Bench-regression gate against the newest committed BENCH_pr*.json
# (see scripts/check_bench.sh for the waiver path).
bench-gate:
	sh scripts/check_bench.sh

# Container image for cmd/evald (distroless static, see Dockerfile).
docker:
	docker build -t $(IMAGE) .

# Run the service from source on $(EVALD_ADDR), unauthenticated, small
# FIR benchmark — the quickest way to poke the API locally.
run-evald:
	EVALD_ADDR=$(EVALD_ADDR) go run ./cmd/evald

# Run one remote simulation worker from source on $(SIMD_ADDR). Start a
# few (distinct SIMD_ADDR), then point evald at them with
# EVALD_SIM_WORKERS=http://127.0.0.1:9090,... — every worker must share
# SIMD_BENCH/SIMD_SIZE/SIMD_SEED with the pool.
run-simd:
	SIMD_ADDR=$(SIMD_ADDR) go run ./cmd/simd

clean:
	rm -rf $(BIN)
