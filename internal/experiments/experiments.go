// Package experiments regenerates every table and figure in the paper's
// evaluation (§2–§7). Each experiment is a function returning a Report —
// a titled table plus shape assertions — consumed by cmd/sdamsim, the
// repository's bench harness, and the integration tests.
//
// Absolute numbers are simulator cycles and simulated GB/s, not FPGA
// measurements; the Reports therefore carry the paper's *shape* claims
// (who wins, by roughly what factor, where crossovers fall) as explicit
// Check results.
//
// Every experiment that simulates drives its cells through
// system.Run/CoRun, so the cross-cell caches underneath — one recorded
// reference tape per {workload, seed}, one profiling pass per content
// key (DESIGN.md §12) — apply to all of them: a figure's sweep pays
// stream generation once, not once per cell. Each such experiment
// declares its cells (Runner.cells), and Run uses the declarations to
// hold every tape and pass until the last experiment in catalog order
// that reads it returns (plan.go, DESIGN.md §32).
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Report is one regenerated table or figure.
type Report struct {
	ID    string // "fig1", "table3", …
	Title string
	Table stats.Table
	Notes []string
	// Checks record the paper's shape claims evaluated against this
	// run's data.
	Checks []Check
}

// Check is one verified (or violated) shape claim.
type Check struct {
	Claim string
	Pass  bool
	Got   string
}

// AddCheck records a claim evaluation.
func (r *Report) AddCheck(claim string, pass bool, got string) {
	r.Checks = append(r.Checks, Check{Claim: claim, Pass: pass, Got: got})
}

// Failed returns the violated checks.
func (r *Report) Failed() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// CSV renders the report's table as CSV for external plotting.
func (r *Report) CSV() string { return r.Table.CSV() }

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	b.WriteString(r.Table.String())
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "check [%s] %s (%s)\n", status, c.Claim, c.Got)
	}
	return b.String()
}

// Scale selects the experiment fidelity: Quick for tests/benches under
// -short, Full for the recorded EXPERIMENTS.md numbers.
type Scale int

// Fidelity levels.
const (
	Quick Scale = iota
	Full
)

// refs returns a reference budget for the scale.
func (s Scale) refs(quick, full int) int {
	if s == Quick {
		return quick
	}
	return full
}

// Runner is a named experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(Scale) (*Report, error)
	// cells declares the runs Run makes through the system layer, for
	// the catalog's hold plan (plan.go); nil for an experiment that
	// reads no memo.
	cells func(Scale) []cell
}

// All lists every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig1", "HBM throughput vs channels and row-hit rate", Fig1, nil},
		{"fig2", "channel conflicts for stride/mapping combinations", Fig2, nil},
		{"fig3", "throughput and bit-flip distribution vs stride (default mapping)", Fig3, nil},
		{"fig4", "single vs per-stride mapping on mixed workloads", Fig4, nil},
		{"table1", "variable-level statistics of SPEC2006/PARSEC proxies", Table1, nil},
		{"fig11", "synthetic data-copy: configs vs number of distinct strides; CLP distribution", Fig11, fig11Cells},
		{"fig12a", "CPU speedups on standard benchmarks", Fig12a, fig12aCells},
		{"fig12b", "CPU speedups on data-intensive benchmarks", Fig12b, fig12bCells},
		{"fig13", "profiling time: K-Means vs DL-assisted K-Means", Fig13, nil},
		{"fig14", "speedup vs HBM frequency and core count", Fig14, fig14Cells},
		{"fig15", "accelerator speedups on data-intensive benchmarks", Fig15, fig15Cells},
		{"table2", "DL training hyper-parameters", Table2, nil},
		{"table3", "hardware cost model (FPGA-resource analog)", Table3, nil},
		{"table4", "system-software modification inventory (LOC analog)", Table4, nil},
	}
}

// Ablations lists the extension experiments that quantify this
// reproduction's design choices (not figures from the paper).
func Ablations() []Runner {
	return []Runner{
		{"abl-chunk", "chunk-size trade-off: CMT storage vs fragmentation", AblChunkSize, nil},
		{"abl-cmt", "CMT organization: two-level vs flat across capacities", AblCMT, nil},
		{"abl-clusters", "mapping-cluster budget: speedup vs K", AblClusters, ablClustersCells},
		{"abl-mshr", "SDAM gain vs outstanding-miss window", AblMSHR, ablMSHRCells},
		{"abl-guard", "do-no-harm selection guard on/off", AblGuard, ablGuardCells},
		{"abl-corun", "co-running applications sharing one CMT", AblCoRun, ablCoRunCells},
		{"abl-rowguard", "row-hammer guard-row overhead by mapping class", AblRowGuard, nil},
		{"abl-refresh", "DRAM refresh bandwidth tax", AblRefresh, nil},
	}
}

// ByID finds an experiment runner (paper figures/tables and ablations).
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	for _, r := range Ablations() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
