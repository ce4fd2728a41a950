package fixture // want "has no package-level doc comment"

// A fixture for sdamvet/pkgdoc: no file in this package documents the
// package clause (this comment is detached — a blank line separates it
// from the clause above, and it sits below it anyway), so the rule
// reports the first file's package line. Documented packages are
// exercised by every other fixture package, which all carry doc
// comments and must stay silent under the full-suite runs.
//
// This is the scratch mutation that deleted internal/geom's package
// comment: it compiled and passed go vet, go test ./..., go test -race
// -short ./... and go test -race ./internal/experiments; only this rule
// rejected it (DESIGN.md §30).

func touched() int { return 1 }

var _ = touched()
