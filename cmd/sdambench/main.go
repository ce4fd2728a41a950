// Command sdambench sweeps one benchmark (or a suite) across the paper's
// six system configurations and prints the speedups over BS+DM — the
// Fig 12/15 view for arbitrary parameter choices.
//
// Usage:
//
//	sdambench [-engine cpu|accel] [-cores n] [-clusters n] [-refs n]
//	          [-hbmdiv f] [-jobs n] <benchmark>|standard|data
//
// -jobs bounds how many simulation cells run concurrently (0 means
// GOMAXPROCS). -cpuprofile and -memprofile write pprof profiles covering
// the sweep. -metrics writes a schema-versioned JSON snapshot of the
// simulator's observability counters after the sweep; -trace writes the
// sweep's phase spans as Chrome trace_event JSON for Perfetto. See
// docs/OBSERVABILITY.md. Host-time measurement lives in the benchmark
// harness (bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/sdam"
)

func main() {
	engine := flag.String("engine", "cpu", "processing element: cpu or accel")
	cores := flag.Int("cores", 4, "cores / accelerator units")
	clusters := flag.Int("clusters", 32, "clusters for the ML/DL selectors")
	refs := flag.Int("refs", 80_000, "per-run reference budget")
	hbmdiv := flag.Float64("hbmdiv", 1, "HBM frequency divider (Fig 14)")
	jobs := flag.Int("jobs", 0, "max concurrent simulation cells (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the sweep to this file")
	metricsPath := flag.String("metrics", "", "write a JSON metrics snapshot of the sweep to this file (\"-\" for stdout)")
	tracePath := flag.String("trace", "", "write the sweep's phase spans as Chrome trace_event JSON to this file (opens in Perfetto)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sdambench [flags] <benchmark>|standard|data")
		flag.PrintDefaults()
		os.Exit(2)
	}
	sdam.SetJobs(*jobs)
	if *metricsPath != "" {
		sdam.EnableMetrics()
	}
	if *tracePath != "" {
		sdam.EnableTracing()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdambench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sdambench: %v\n", err)
			os.Exit(1)
		}
	}

	var eng sdam.EngineConfig
	switch *engine {
	case "cpu":
		eng = sdam.CPUEngine(*cores)
	case "accel":
		eng = sdam.AcceleratorEngine(*cores)
	default:
		fmt.Fprintf(os.Stderr, "sdambench: unknown engine %q\n", *engine)
		os.Exit(2)
	}

	var names []string
	switch flag.Arg(0) {
	case "standard":
		names = sdam.ProxyNames()
	case "data":
		names = sdam.KernelNames()
	default:
		names = []string{flag.Arg(0)}
	}

	base := sdam.Options{Engine: eng, Clusters: *clusters, HBMScale: *hbmdiv}
	kinds := []sdam.Kind{sdam.BSDM, sdam.BSBSM, sdam.BSHM, sdam.SDMBSM, sdam.SDMBSMML, sdam.SDMBSMDL}

	printHeader(kinds)
	for _, name := range names {
		w, err := buildBench(name, *refs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdambench: %v\n", err)
			os.Exit(1)
		}
		results, err := sdam.Compare(w, base, kinds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdambench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printRow(name, results)
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdambench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sdambench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	if *metricsPath != "" {
		if err := writeTo(*metricsPath, func(f *os.File) error {
			return sdam.Metrics().WriteJSON(f)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "sdambench: %v\n", err)
			os.Exit(1)
		}
	}
	if *tracePath != "" {
		if err := writeTo(*tracePath, func(f *os.File) error {
			return sdam.WriteTrace(f)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "sdambench: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeTo streams write's output to path, or stdout for "-".
func writeTo(path string, write func(*os.File) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printHeader(kinds []sdam.Kind) {
	fmt.Printf("%-14s", "benchmark")
	for _, k := range kinds[1:] {
		fmt.Printf("  %12s", k)
	}
	fmt.Println()
}

func printRow(name string, results []sdam.Result) {
	fmt.Printf("%-14s", name)
	for _, r := range results[1:] {
		fmt.Printf("  %11.2fx", r.SpeedupOver(results[0]))
	}
	fmt.Println()
}

// buildBench resolves a benchmark name, additionally accepting
// "trace:<path>" to replay a trace recorded with sdamprof -trace.
func buildBench(name string, refs int) (sdam.Workload, error) {
	if strings.HasPrefix(name, "trace:") {
		f, err := os.Open(strings.TrimPrefix(name, "trace:"))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := sdam.LoadTrace(f)
		if err != nil {
			return nil, err
		}
		return tr.Workload(), nil
	}
	return sdam.NewWorkloadByName(name, refs)
}
