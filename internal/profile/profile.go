// Package profile turns raw per-variable trace statistics into the
// artifacts §6.2's mapping-selection flow consumes: the major-variable
// set (the variables covering 80 % of external references, Observation 3
// of §3), their bit-flip-rate vectors, and the Table 1 style summary
// statistics reported for each benchmark.
package profile

import (
	"fmt"
	"sort"

	"repro/internal/mapping"
	"repro/internal/trace"
)

// MajorShare is the reference-coverage threshold defining major
// variables (paper §3: variables comprising 80 % of references).
const MajorShare = 0.8

// VarProfile is one variable's profiling result.
type VarProfile struct {
	VID   int
	Site  string
	Refs  uint64
	Bytes uint64 // peak footprint
	BFRV  mapping.BFRV
	Major bool
	// Sample holds up to trace.SampleCap observed chunk offsets, used to
	// validate candidate mappings against measured traffic.
	Sample []uint32
}

// Profile is the result of profiling one application run.
type Profile struct {
	App       string
	Vars      []VarProfile // sorted by Refs descending
	TotalRefs uint64
}

// FromCollector builds a Profile from a trace collector.
func FromCollector(app string, c *trace.Collector) Profile {
	vars := c.Variables()
	p := Profile{App: app, TotalRefs: c.TotalRefs()}
	for _, v := range vars {
		p.Vars = append(p.Vars, VarProfile{
			VID:    v.VID,
			Site:   v.Site,
			Refs:   v.Refs,
			Bytes:  v.PeakBytes,
			BFRV:   v.BFRV(),
			Sample: v.Sample,
		})
	}
	rank(p.Vars, p.TotalRefs)
	return p
}

// rank applies the major-variable rule (paper §3, Observation 3): order
// vars by references descending, VID ascending, and mark as major the
// smallest prefix covering MajorShare of total references.
func rank(vars []VarProfile, total uint64) {
	sort.SliceStable(vars, func(i, j int) bool {
		if vars[i].Refs != vars[j].Refs {
			return vars[i].Refs > vars[j].Refs
		}
		return vars[i].VID < vars[j].VID
	})
	threshold := uint64(float64(total) * MajorShare)
	var cum uint64
	for i := range vars {
		vars[i].Major = cum < threshold || cum == 0
		cum += vars[i].Refs
	}
}

// Majors returns the major variables.
func (p Profile) Majors() []VarProfile {
	var out []VarProfile
	for _, v := range p.Vars {
		if v.Major {
			out = append(out, v)
		}
	}
	return out
}

// Table1Row is one row of the paper's Table 1 summary.
type Table1Row struct {
	Benchmark  string
	NumVars    int
	NumMajor   int
	AvgMajorMB float64
	MinMajorMB float64
}

// Table1 computes the Table 1 statistics for a profile.
func (p Profile) Table1() Table1Row {
	row := Table1Row{Benchmark: p.App, NumVars: len(p.Vars)}
	var sum float64
	min := -1.0
	for _, v := range p.Majors() {
		row.NumMajor++
		mb := float64(v.Bytes) / (1 << 20)
		sum += mb
		if min < 0 || mb < min {
			min = mb
		}
	}
	if row.NumMajor > 0 {
		row.AvgMajorMB = sum / float64(row.NumMajor)
		row.MinMajorMB = min
	}
	return row
}

// String renders the row in Table 1's column order.
func (r Table1Row) String() string {
	return fmt.Sprintf("%-14s %7d %6d %10.1f %10.1f",
		r.Benchmark, r.NumVars, r.NumMajor, r.AvgMajorMB, r.MinMajorMB)
}

// MajorCoverage returns the fraction of references the major variables
// account for.
func (p Profile) MajorCoverage() float64 {
	if p.TotalRefs == 0 {
		return 0
	}
	var cum uint64
	for _, v := range p.Majors() {
		cum += v.Refs
	}
	return float64(cum) / float64(p.TotalRefs)
}

// BFRVs returns the major variables' flip vectors in VID order, the
// clustering input of §6.2.
func (p Profile) BFRVs() ([]mapping.BFRV, []int) {
	majors := p.Majors()
	sort.Slice(majors, func(i, j int) bool { return majors[i].VID < majors[j].VID })
	vecs := make([]mapping.BFRV, len(majors))
	vids := make([]int, len(majors))
	for i, v := range majors {
		vecs[i] = v.BFRV
		vids[i] = v.VID
	}
	return vecs, vids
}

// MajorSamples returns the major variables' offset samples in the same
// VID order BFRVs uses.
func (p Profile) MajorSamples() [][]uint32 {
	majors := p.Majors()
	sort.Slice(majors, func(i, j int) bool { return majors[i].VID < majors[j].VID })
	out := make([][]uint32, len(majors))
	for i, v := range majors {
		out[i] = v.Sample
	}
	return out
}
