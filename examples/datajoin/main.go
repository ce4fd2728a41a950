// In-memory join processing under SDAM: compare the hash join and the
// merge-sort join across all six system configurations on the CPU — the
// in-memory-analytics slice of the paper's Fig 12(b).
//
// The two joins stress the memory system differently: the hash join's
// bucket probes are random (any spreading mapping serves them), while
// the merge join's 16-way multiway merge reads power-of-two-aligned runs
// in near-lockstep — the pattern that collapses a fixed channel
// interleave and that per-variable mappings recover.
package main

import (
	"fmt"
	"log"

	"repro/sdam"
)

func main() {
	opts := sdam.KernelOptions{MaxRefs: 60_000}
	joins := []sdam.Workload{
		sdam.NewHashJoin(opts),
		sdam.NewMergeJoin(opts),
	}
	kinds := []sdam.Kind{
		sdam.BSDM, sdam.BSBSM, sdam.BSHM,
		sdam.SDMBSM, sdam.SDMBSMML, sdam.SDMBSMDL,
	}

	fmt.Println("join kernels on the 4-core CPU, speedup over BS+DM")
	fmt.Printf("%-11s", "kernel")
	for _, k := range kinds[1:] {
		fmt.Printf(" %11s", k)
	}
	fmt.Println()
	for _, w := range joins {
		results, err := sdam.Compare(w, sdam.Options{Clusters: 8}, kinds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s", w.Name())
		for _, r := range results[1:] {
			fmt.Printf(" %10.2fx", r.SpeedupOver(results[0]))
		}
		fmt.Println()
	}

	// The same comparison on the accelerator: no cache in front of
	// memory, deeper request pipelines — the configuration the paper
	// found benefits most (§7.4). Each Compare releases the reference
	// tapes it recorded when it returns, so this loop records the joins'
	// streams again instead of replaying the first loop's.
	fmt.Println("\nsame kernels on the near-memory accelerator")
	fmt.Printf("%-11s", "kernel")
	for _, k := range kinds[1:] {
		fmt.Printf(" %11s", k)
	}
	fmt.Println()
	for _, w := range joins {
		results, err := sdam.Compare(w, sdam.Options{Clusters: 8, Engine: sdam.AcceleratorEngine(4)}, kinds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s", w.Name())
		for _, r := range results[1:] {
			fmt.Printf(" %10.2fx", r.SpeedupOver(results[0]))
		}
		fmt.Println()
	}
}
