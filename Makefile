# Pre-PR gate for the recyclesim repository.
#
#   make check       everything below, in order (run before every PR)
#   make fmt         fail if any file is not gofmt-clean
#   make vet         go vet over the whole module
#   make build       compile everything, including examples
#   make lint        the simulator-specific static analyzers (cmd/recyclelint)
#   make test        full test suite under the race detector
#   make fuzz        10s coverage-guided smoke of each fuzz target
#                    (assembler, config validation, store records and
#                    sampling checkpoints), seeded from the checked-in
#                    corpora under testdata/fuzz and the targets' seeds
#   make smoke       one short instrumented run through both telemetry
#                    exporters (-metrics / -metrics-text), output discarded
#   make invariant   cosim suite with the runtime invariant checker forced on
#   make bench       benchmark suite; fails on >10% simInsts/s regression
#                    vs the committed BENCH_simulator.json, then refreshes it
#   make bench-smoke throughput benchmarks only (detailed + sampled), gated
#                    against a scratch copy of the baseline with a loose
#                    tolerance — a catastrophic-regression detector cheap
#                    and noise-tolerant enough for shared CI runners; the
#                    committed baseline is left untouched

GO ?= go

.PHONY: check fmt vet build lint test fuzz smoke invariant bench bench-smoke

check: fmt vet build lint test fuzz smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

lint:
	$(GO) run ./cmd/recyclelint ./...

test:
	$(GO) test -race ./...

# One -fuzz pattern per invocation: the Go fuzzer only accepts a single
# matching target when fuzzing (not just running seeds).
fuzz:
	$(GO) test ./internal/asm/ -fuzz FuzzAssemble -fuzztime 10s
	$(GO) test ./internal/config/ -fuzz FuzzMachineValidate -fuzztime 10s
	$(GO) test ./internal/config/ -fuzz FuzzFeaturesValidate -fuzztime 10s
	$(GO) test ./internal/store/ -fuzz FuzzStoreDecode -fuzztime 10s
	$(GO) test ./internal/sample/ -fuzz FuzzCheckpointDecode -fuzztime 10s

smoke:
	$(GO) run ./cmd/recyclesim -workloads compress -insts 20000 -flightrec 256 -metrics - >/dev/null
	$(GO) run ./cmd/recyclesim -workloads compress -insts 20000 -flightrec 256 -metrics-text - >/dev/null

invariant:
	$(GO) test -tags siminvariant ./internal/core/

bench:
	$(GO) run ./cmd/benchgate

bench-smoke:
	@tmp="$$(mktemp)"; \
	cp BENCH_simulator.json "$$tmp"; \
	$(GO) run ./cmd/benchgate -bench 'SimulatorThroughput|SampledThroughput' -tolerance 0.6 -out "$$tmp"; \
	status=$$?; rm -f "$$tmp"; exit $$status
