# Single-entry developer targets, used verbatim by CI so local runs and
# the pipeline cannot drift.

GO ?= go

.PHONY: lint lint-json docs build test race fuzz bench examples loc

# lint is the one gate for static checks: go vet plus the repository's
# own determinism & concurrency suite (cmd/sdamvet, 8 rules — see
# `go run ./cmd/sdamvet -list`).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/sdamvet ./...

# lint-json re-runs the sdamvet suite with machine-readable output; CI
# uploads the resulting findings file as an artifact even on failure.
lint-json:
	$(GO) run ./cmd/sdamvet -json ./... > sdamvet-findings.json

# docs checks the documentation against the code: every relative
# markdown link resolves, every annotated flag table matches the flags
# its command actually registers, and DESIGN.md's section numbering is
# monotonic (see cmd/sdamdocs).
docs:
	$(GO) run ./cmd/sdamdocs

build:
	$(GO) build ./...

# examples runs every program under examples/ to completion: `build`
# only compiles them. The first one that exits non-zero fails the target.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run "./$$d"; done

test:
	$(GO) test ./...

# loc prints the line count of the root module's non-test Go files,
# leaving out the benchmark module (bench/) and analyzer fixtures
# (testdata/): the one number a change reports as its net lines.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -exec cat {} + | wc -l

race:
	$(GO) test -race -short ./...

# fuzz runs every Fuzz* target in the root module's tests for 10 s of
# coverage-guided fuzzing each. Targets are found by name in each
# package's _test.go files, so a new one is never left out; the seed
# corpora already run as ordinary tests under `test`. Minimizing each
# new interesting input may take up to -fuzzminimizetime (default 60 s),
# during which no new input runs: the JSON loaders' targets found inputs
# early and then executed nothing for the rest of their 10 s, so each
# minimization is capped at 1 s.
fuzz:
	@set -e; for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		for n in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$d/*_test.go 2>/dev/null); do \
			echo "== $$n ($$d)"; \
			$(GO) test -run='^$$' -fuzz="^$$n\$$" -fuzztime=10s -fuzzminimizetime=1s "$$d"; \
		done; \
	done

# bench smoke: the simulator hot path, the DL selector's two
# training-cost benchmarks (cluster.select_dl_ms is mostly internal/f64's
# lane-fused kernels; TrainJoint isolates the training loop, SelectDL
# times the whole selection pipeline), each paper kernel's input
# construction (KernelStreams, one sub-benchmark per kernel), tape
# recording and replay (TapeRecord, TapeReplay: one proxy, one kernel)
# and the profiling collector (CollectorRecord).
bench:
	$(GO) test -bench='HotPath|TrainJoint|SelectDL|KernelStreams|TapeRecord|TapeReplay|CollectorRecord' -benchtime=1x -run='^$$' . ./internal/vm ./internal/nn ./internal/cluster ./internal/apps ./internal/tape ./internal/trace
