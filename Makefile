# Pre-PR gate for the recyclesim repository.
#
#   make check       fmt, vet, build, lint, test, fuzz and smoke, in
#                    order (run before every PR; invariant, results and
#                    size below are not part of it)
#   make fmt         fail if any file is not gofmt-clean
#   make vet         go vet over the whole module
#   make build       compile everything, including examples
#   make lint        the simulator-specific static analyzers (cmd/recyclelint)
#   make test        full test suite under the race detector
#   make fuzz        10s coverage-guided smoke of each fuzz target
#                    (assembler, config validation, store records,
#                    the paged data memory, the cache tag store and
#                    sampled fast-forward),
#                    seeded from the checked-in corpora under
#                    testdata/fuzz and the targets' seeds
#   make smoke       one short instrumented run through both telemetry
#                    exporters (-metrics / -metrics-text), output discarded
#   make invariant   core, sampled-mode, fleet and root-package suites
#                    with the runtime invariant checker forced on (every
#                    256 cycles); the root package adds the
#                    multi-program facade runs, the batch and fault
#                    witnesses and the pooled-core matrix, and the
#                    fleet its shared-program cells on reused cores
#   make results     regenerate results.txt: every detailed figure and
#                    table at 200k instructions per cell, a blank line,
#                    then the sampled Figure 3 at 2M (not part of check;
#                    CI reruns it and fails if the file changes)
#   make prof        one CPU profile of the detailed cycle loop: gcc at
#                    1M instructions under SMT, TME, REC and REC/RS/RU
#                    (cmd/recyclesim -cpuprofile), merged into
#                    prof.pb.gz, then its top 50 functions by cumulative
#                    time (not part of check; BenchmarkPresetCost in
#                    internal/core gives the per-preset ns/renamed)
#   make costcmp BASE=<rev> ROUNDS=<n>
#                    BenchmarkPresetCost built from revision BASE and
#                    from the working tree, run alternately ROUNDS times
#                    at -benchtime 1x; prints each preset's median
#                    ns/renamed on both sides and the median paired
#                    change (scripts/costcmp.sh; not part of check;
#                    defaults BASE=HEAD ROUNDS=5)
#   make size        non-test, non-blank, non-comment Go lines outside
#                    bench/ and testdata/, per package directory and in
#                    total, over the files git tracks or would track
#                    (so ignored build output such as .bench_build/
#                    never counts; not part of check)
#   make sizecmp BASE=<rev>
#                    the same counts at revision BASE (exported with git
#                    archive) and in the working tree, per package and
#                    in total, with the change (scripts/size.sh, which
#                    make size runs too; not part of check; defaults
#                    BASE=HEAD)
#
# The benchmark is bench/ (bash bench/run.sh); see bench/README.md.

GO ?= go

.PHONY: check fmt vet build lint test fuzz smoke invariant results prof costcmp size sizecmp

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
# matching target when fuzzing (not just running seeds).  The sample
# target's -run skips that package's slow sampled-accuracy tests, which
# make test already ran.
fuzz:
	$(GO) test ./internal/asm/ -fuzz FuzzAssemble -fuzztime 10s
	$(GO) test ./internal/config/ -fuzz FuzzMachineValidate -fuzztime 10s
	$(GO) test ./internal/config/ -fuzz FuzzFeaturesValidate -fuzztime 10s
	$(GO) test ./internal/store/ -fuzz FuzzStoreDecode -fuzztime 10s
	$(GO) test ./internal/program/ -fuzz FuzzMemory -fuzztime 10s
	$(GO) test ./internal/cache/ -fuzz FuzzCacheLookup -fuzztime 10s
	$(GO) test ./internal/sample/ -run '^FuzzFastForward$$' -fuzz FuzzFastForward -fuzztime 10s

smoke:
	$(GO) run ./cmd/recyclesim -workloads compress -insts 20000 -flightrec 256 -metrics - >/dev/null
	$(GO) run ./cmd/recyclesim -workloads compress -insts 20000 -flightrec 256 -metrics-text - >/dev/null

invariant:
	$(GO) test -tags siminvariant ./internal/core/ ./internal/sample/ ./internal/fleet/ .

results:
	{ $(GO) run ./cmd/experiments -all -insts 200000 && echo && \
	  $(GO) run ./cmd/experiments -sampled -insts 2000000; } > results.txt.tmp
	mv results.txt.tmp results.txt

PROF_PRESETS = SMT TME REC REC/RS/RU

prof:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/recyclesim" ./cmd/recyclesim && \
	i=0 && for f in $(PROF_PRESETS); do \
		i=$$((i + 1)); \
		"$$dir/recyclesim" -workloads gcc -insts 1000000 -features "$$f" \
			-cpuprofile "$$dir/$$i.prof" > /dev/null || exit 1; \
	done && \
	$(GO) tool pprof -proto "$$dir"/*.prof > prof.pb.gz && \
	$(GO) tool pprof -top -cum -nodecount 50 prof.pb.gz

BASE ?= HEAD
ROUNDS ?= 5

costcmp:
	GO=$(GO) bash scripts/costcmp.sh $(BASE) $(ROUNDS)

size:
	@bash scripts/size.sh

sizecmp:
	@bash scripts/size.sh $(BASE)
