// Command sdamprof runs the offline SDAM profiling flow on one
// benchmark: execute it on the baseline system with the variable
// profiler attached, report the major variables (the Table 1 view), and
// show the address mappings each selector would choose.
//
// Usage:
//
//	sdamprof [-k clusters] [-refs n] [-dl] <benchmark>
//
// where <benchmark> is a Table 1 proxy name (mcf, omnetpp, …) or one of
// the data-intensive kernels (bfs, pagerank, sssp, hashjoin, mergejoin,
// kmeans, hnsw, ivfpq).
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"strings"

	"repro/sdam"
)

func main() {
	k := flag.Int("k", 4, "number of mapping clusters")
	refs := flag.Int("refs", 100_000, "profiling reference budget")
	useDL := flag.Bool("dl", false, "also run the DL-assisted selector")
	out := flag.String("o", "", "save the profile as JSON to this file")
	traceOut := flag.String("trace", "", "record one run as a replayable trace to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: sdamprof [-k n] [-refs n] [-dl] <benchmark>\nproxies: %s\nkernels: bfs pagerank sssp hashjoin mergejoin kmeans hnsw ivfpq\n",
			strings.Join(sdam.ProxyNames(), " "))
		os.Exit(2)
	}
	name := flag.Arg(0)

	w, err := sdam.NewWorkloadByName(name, *refs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdamprof: %v\n", err)
		os.Exit(1)
	}
	prof, deltas, err := sdam.ProfileWorkload(w, sdam.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdamprof: %v\n", err)
		os.Exit(1)
	}

	if *traceOut != "" {
		tr, err := sdam.RecordTrace(w, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdamprof: recording trace: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdamprof: %v\n", err)
			os.Exit(1)
		}
		if err := tr.Save(f); err != nil {
			fmt.Fprintf(os.Stderr, "sdamprof: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "sdamprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace (%d refs) saved to %s\n", tr.Refs(), *traceOut)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdamprof: %v\n", err)
			os.Exit(1)
		}
		if err := prof.Save(f); err != nil {
			fmt.Fprintf(os.Stderr, "sdamprof: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "sdamprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("profile saved to %s\n", *out)
	}

	fmt.Printf("profile of %s: %d variables, %d references, major coverage %.0f%%\n\n",
		prof.App, len(prof.Vars), prof.TotalRefs, prof.MajorCoverage()*100)
	fmt.Printf("%-28s %10s %10s  %s\n", "variable", "refs", "MB", "bfrv (bit 0..14)")
	for _, v := range prof.Vars {
		if !v.Major {
			continue
		}
		var bf []string
		for _, f := range v.BFRV {
			bf = append(bf, fmt.Sprintf("%.2f", f))
		}
		fmt.Printf("%-28s %10d %10.1f  %s\n", v.Site, v.Refs, float64(v.Bytes)/(1<<20), strings.Join(bf, " "))
	}

	sel, err := sdam.SelectKMeans(prof, *k)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdamprof: kmeans selection: %v\n", err)
		os.Exit(1)
	}
	printSelection("K-Means", sel, prof)

	if *useDL {
		dl, err := sdam.SelectDL(prof, deltas, *k, sdam.DLOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdamprof: DL selection: %v\n", err)
			os.Exit(1)
		}
		printSelection("DL-assisted K-Means", dl, prof)
	}
}

func printSelection(label string, sel sdam.Selection, prof sdam.Profile) {
	fmt.Printf("\n%s selection (k=%d): %d distinct mappings, %v\n",
		label, sel.K, sel.MappingsUsed(), sel.ProfilingTime)
	site := map[int]string{}
	for _, v := range prof.Vars {
		site[v.VID] = v.Site
	}
	vids := make([]int, 0, len(sel.VarMapping))
	for vid := range sel.VarMapping {
		vids = append(vids, vid)
	}
	sort.Ints(vids)
	for _, vid := range vids {
		m := sel.VarMapping[vid]
		// Selections are bit shuffles: one PA bit per HA bit.
		var perm []int
		for _, r := range m.Rows() {
			perm = append(perm, bits.TrailingZeros32(r))
		}
		fmt.Printf("  %-28s cluster %d  %-12s perm %v\n", site[vid], sel.VarCluster[vid], m.Name(), perm)
	}
}
