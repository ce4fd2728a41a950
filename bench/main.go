// Command bench is the SDAM simulator's repeatable benchmark: end-to-end
// metrics per workload from fresh-process repetitions, per-layer metrics
// from a separate traced run, a host fingerprint on every result, noise
// calibration of the regression bounds, and a comparison of two result
// files. Run it from the repository root:
//
//	bash bench/run.sh [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-json file]
//	bash bench/run.sh -calibrate
//	bash bench/run.sh -compare parent.json change.json
//
// The last line of a measurement's output is one JSON object with the
// keys correct, attempted, failed and metrics. README.md holds the
// workload and metric catalog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// childEnv marks a process started by the benchmark's parent process; a test binary uses it
// to act as the child instead of running tests.
const childEnv = "SDAM_BENCH_CHILD"

// defaultSeconds is how long one workload's run measures; BENCHMARK.json
// carries it as run_seconds.
const defaultSeconds = 30

// options are the parsed flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool
	out      string
	child    string
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout)) }

func run(args []string, stdin io.Reader, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var traceLevel int
	var jsonPath string
	var calibrate, compare bool
	fs.StringVar(&o.workload, "workload", "", "measure only this workload (default: every workload)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed, >= 0: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "how long each workload's run measures")
	fs.IntVar(&traceLevel, "trace", 0, "1 = traced run: per-layer metrics and Perfetto traces")
	fs.BoolVar(&o.tiny, "tiny", false, "run every workload at a tiny size (tests)")
	fs.StringVar(&o.out, "out", ".bench_build/out", "directory for trace files")
	fs.StringVar(&jsonPath, "json", "", "also write the result file (host fingerprint, every sample) here")
	fs.BoolVar(&calibrate, "calibrate", false, "measure run-to-run noise over seeds 1..10 and write the bounds into BENCHMARK.json")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare parent.json change.json")
	fs.StringVar(&o.child, "child", "", "internal: run one repetition of this workload, or the layer probes, in this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceLevel == 1
	if o.seed < 0 || traceLevel < 0 || traceLevel > 1 || o.seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: -seed and -seconds must be >= 0 and -trace 0 or 1")
		return 2
	}
	switch {
	case o.child != "":
		if err := runChild(o, stdin, stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.child, err)
			return 1
		}
		return 0
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: usage: -compare parent.json change.json")
			return 2
		}
		b, err := readBenchmark(benchmarkJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		ok, err := compareFiles(fs.Arg(0), fs.Arg(1), b.bounds(), stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	case calibrate:
		if err := runCalibration(o, stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}

	specs := workloads
	if o.workload != "" {
		spec, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	host := thisHost()
	fmt.Fprintf(stdout, "host: %s, nproc %d, GOMAXPROCS %d, jobs %d, f64 accelerated %t, %s\n",
		host.CPUModel, host.NumCPU, host.GOMAXPROCS, host.Jobs, host.F64Accelerated, host.GoVersion)
	res := resultFile{Schema: resultSchema, Host: host, Seconds: o.seconds, Trace: o.trace, Tiny: o.tiny}
	for _, spec := range specs {
		var wr workloadResult
		if o.trace {
			wr = measureTraced(o, spec)
		} else {
			wr = measure(o, spec)
		}
		printWorkload(stdout, wr, spec)
		res.Workloads = append(res.Workloads, wr)
	}
	if o.trace {
		fmt.Fprintf(stdout, "\ntraces: %s/trace-<workload>.json (program spans), %s/trace-layers.json (benchmark spans)\n", o.out, o.out)
	}
	if jsonPath != "" {
		if err := writeResult(jsonPath, res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	line := newResultLine(res)
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// runCalibration measures each workload once per seed and rewrites
// BENCHMARK.json with the bound each end-to-end metric's run-to-run
// spread calls for (the largest over the workloads).
func runCalibration(o options, out io.Writer) error {
	bounds := make(map[string]float64)
	fmt.Fprintf(out, "%-14s %-22s %12s %8s %8s\n", "workload", "metric", "median", "spread", "bound")
	for _, spec := range workloads {
		values := make(map[string][]float64)
		for seed := int64(1); seed <= calibrationRuns; seed++ {
			o.seed = seed
			wr := measure(o, spec)
			if wr.Failed > 0 {
				return fmt.Errorf("calibration run %s seed %d failed: %v", spec.name, seed, wr.Errors)
			}
			for _, m := range wr.Metrics {
				values[m.Name] = append(values[m.Name], m.value())
			}
		}
		for _, m := range endToEnd {
			b := calibratedBound(m, values[m.name])
			s := summarize(values[m.name])
			fmt.Fprintf(out, "%-14s %-22s %12.5g %8.4f %8.4f\n", spec.name, m.name, s.Median, s.spread(), b)
			bounds[m.name] = max(bounds[m.name], b)
		}
	}
	return writeFile(benchmarkJSON, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(renderBenchmark(bounds))
	})
}
