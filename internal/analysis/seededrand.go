package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// seededRandAnalyzer implements sdamvet/seededrand: uses of
// nondeterministic entropy inside deterministic simulation paths.
//
// Two sources are flagged:
//
//   - package-level math/rand (and math/rand/v2) functions: they draw
//     from the process-global generator, whose sequence depends on what
//     every other goroutine consumed — and under the parallel sweep
//     harness that interleaving changes run to run. Constructors (New,
//     NewSource, …) are allowed; the required idiom is an explicit
//     rand.New(rand.NewSource(seed)) per cell, with methods on the
//     local *rand.Rand.
//
//   - time.Now / time.Since: host wall clock. The one sanctioned use is
//     the Fig 13 profiling-time report, routed through
//     internal/wallclock, the one package this rule skips.
//
// Test files are never analyzed, so test-local randomness is exempt by
// construction.
var seededRandAnalyzer = Analyzer{
	Rule:  "seededrand",
	Doc:   "global math/rand functions or time.Now/time.Since in deterministic simulation code",
	Check: checkSeededRand,
}

// allowedRand lists the package-level math/rand functions that are
// deterministic-safe: pure constructors for locally seeded generators.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func checkSeededRand(pkg *Package) []Diagnostic {
	if strings.HasSuffix(pkg.Path, "internal/wallclock") {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if !allowedRand[fn.Name()] {
					diags = append(diags, Diagnostic{
						Pos:  pkg.Fset.Position(sel.Pos()),
						Rule: "seededrand",
						Message: fmt.Sprintf("global %s.%s draws from the process-wide generator and is nondeterministic under the parallel harness; use rand.New(rand.NewSource(seed))",
							fn.Pkg().Name(), fn.Name()),
					})
				}
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" {
					diags = append(diags, Diagnostic{
						Pos:  pkg.Fset.Position(sel.Pos()),
						Rule: "seededrand",
						Message: fmt.Sprintf("time.%s reads the host wall clock inside deterministic simulation code; derive time from the simulated clock, or route profiling-cost measurement through internal/wallclock",
							fn.Name()),
					})
				}
			}
			return true
		})
	}
	return diags
}
