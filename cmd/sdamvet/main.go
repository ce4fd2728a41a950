// Command sdamvet runs the repository's determinism & concurrency
// analyzer suite (see internal/analysis) over the given package
// patterns — default ./... — and prints one file:line:col diagnostic
// per finding.
//
//	go run ./cmd/sdamvet ./...
//	go run ./cmd/sdamvet -json ./... > findings.json
//
// Exit status: 0 clean, 1 findings, 2 load/usage error. Findings cannot
// be suppressed: every rule runs on every package, and a rule's
// sanctioned exceptions live in the rule itself.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

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
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sdamvet [flags] [packages]\n\nAnalyzes the given package patterns (default ./...) with the\ndeterminism & concurrency rule suite.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.Suite()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("sdamvet/%-12s %s\n", a.Rule, a.Doc)
		}
		return
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
