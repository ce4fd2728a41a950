// Command sdamvet runs the repository's determinism & concurrency
// analyzer suite (see internal/analysis) over the given package
// patterns — default ./... — and prints one file:line:col diagnostic
// per finding.
//
//	go run ./cmd/sdamvet ./...
//	go run ./cmd/sdamvet -rules slotwrite,noalloc ./...
//	go run ./cmd/sdamvet -json ./... > findings.json
//
// Exit status: 0 clean, 1 findings, 2 load/usage error. Suppress an
// individual finding with a "//lint:ignore sdamvet/<rule> reason"
// comment on the flagged line or the line above; a suppression no
// finding matches is itself reported (rule unusedignore).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

// jsonDiagnostic is the stable -json shape CI consumes: one object per
// finding, newline-delimited inside a single top-level array.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzer rules and exit")
	rules := flag.String("rules", "", "comma-separated rule names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sdamvet [flags] [packages]\n\nAnalyzes the given package patterns (default ./...) with the\ndeterminism & concurrency rule suite.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.NewAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("sdamvet/%-12s %s\n", a.Rule(), a.Doc())
		}
		return
	}
	if *rules != "" {
		selected, err := filterRules(analyzers, *rules)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdamvet:", err)
			os.Exit(2)
		}
		analyzers = selected
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdamvet:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadPatterns(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdamvet:", err)
		os.Exit(2)
	}

	diags := analysis.Run(analyzers, pkgs)
	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Column:  d.Pos.Column,
				Rule:    d.Rule,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "sdamvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sdamvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// filterRules resolves a comma-separated -rules value against the suite,
// rejecting unknown names (a typo must not silently run nothing).
func filterRules(all []analysis.Analyzer, spec string) ([]analysis.Analyzer, error) {
	byRule := make(map[string]analysis.Analyzer, len(all))
	for _, a := range all {
		byRule[a.Rule()] = a
	}
	var out []analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimPrefix(strings.TrimSpace(name), "sdamvet/")
		if name == "" {
			continue
		}
		a, ok := byRule[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (use -list to see the suite)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rules %q selects no analyzers", spec)
	}
	return out, nil
}
