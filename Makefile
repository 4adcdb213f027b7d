# Local invocations identical to CI's blocking gates.

GO ?= go

.PHONY: build test lint vettool perfbench fmt tidy

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint is the exact command CI runs as its blocking static-analysis
# step: the cloverlint invariant suite (mapiter, exactbits, ctxflow,
# nondet) over every package. Exit 0 clean, 1 findings, 2 load failure.
lint:
	$(GO) run ./cmd/cloverlint ./...

# vettool runs the same suite through go vet's unitchecker protocol —
# per-package caching, dependency export data from the build cache.
vettool:
	$(GO) build -o $(or $(TMPDIR),/tmp)/cloverlint ./cmd/cloverlint
	$(GO) vet -vettool=$(or $(TMPDIR),/tmp)/cloverlint ./...

# perfbench runs CI's two perfbench steps: the nested module's vet and
# tests (root ./... skips it), then the correctness gate: the full
# campaign against the committed seed-0 digests plus the traced replay
# against RunTraffic. Timings are ignored; exit 1 on correct: false.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	bash perfbench/run.sh --workload campaign-cold --seed 0 --seconds 5 --trace 1

fmt:
	gofmt -l -w .

tidy:
	$(GO) mod tidy
