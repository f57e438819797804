# Pre-PR gate for the recyclesim repository.
#
#   make check       everything below, in order (run before every PR)
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
#   make invariant   core, sampled-mode and root-package suites with
#                    the runtime invariant checker forced on (every
#                    256 cycles); the root package adds the
#                    multi-program facade runs and the batch and fault
#                    witnesses
#   make results     regenerate results.txt: every detailed figure and
#                    table at 200k instructions per cell, a blank line,
#                    then the sampled Figure 3 at 2M (not part of check;
#                    CI reruns it and fails if the file changes)
#   make size        non-test, non-blank, non-comment Go lines outside
#                    bench/ and testdata/, per package directory and in
#                    total, over the files git tracks or would track
#                    (so ignored build output such as .bench_build/
#                    never counts; not part of check)
#
# The benchmark is bench/ (bash bench/run.sh); see bench/README.md.

GO ?= go

.PHONY: check fmt vet build lint test fuzz smoke invariant results size

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
	$(GO) test -tags siminvariant ./internal/core/ ./internal/sample/ .

results:
	{ $(GO) run ./cmd/experiments -all -insts 200000 && echo && \
	  $(GO) run ./cmd/experiments -sampled -insts 2000000; } > results.txt.tmp
	mv results.txt.tmp results.txt

size:
	@git ls-files -co --exclude-standard -- '*.go' | \
	grep -Ev -e '_test\.go$$' -e '^bench/' -e '(^|/)testdata/' | \
	awk '{ f = $$0; d = f; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; \
	       while ((getline line < f) > 0) { sub(/^[ \t]+/, "", line); \
	         if (line != "" && line !~ /^\/\//) { n[d]++; total++ } } \
	       close(f) } \
	     END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; \
	           close("sort -k2"); printf "%7d  total\n", total }'
