# Single-entry developer targets, used verbatim by CI so local runs and
# the pipeline cannot drift.

GO ?= go

.PHONY: lint lint-json docs build test race bench examples

# lint is the one gate for static checks: go vet plus the repository's
# own determinism & concurrency suite (cmd/sdamvet, 9 rules — see
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

race:
	$(GO) test -race -short ./...

# bench smoke: the simulator hot path, the DL selector's two
# training-cost benchmarks (cluster.select_dl_ms is mostly internal/f64's
# lane-fused kernels; TrainJoint isolates the training loop, SelectDL
# times the whole selection pipeline) and each paper kernel's input
# construction (KernelStreams, one sub-benchmark per kernel).
bench:
	$(GO) test -bench='HotPath|TrainJoint|SelectDL|KernelStreams' -benchtime=1x -run='^$$' . ./internal/vm ./internal/nn ./internal/cluster ./internal/apps
