// Multi-programmed SDAM: four applications with different dominant
// strides co-run on one machine, each in its own address space, all
// sharing the 32-channel HBM device and the single 256-entry chunk
// mapping table. Per-application profiling picks each program's
// mappings; the kernel installs them side by side in the shared CMT.
//
// Under the fixed default mapping the four stride patterns fight over a
// handful of channels; under SDAM each pattern gets its own lane.
package main

import (
	"fmt"
	"log"

	"repro/sdam"
)

func main() {
	mixes := [][]int{{32}, {32, 128}, {32, 128, 1024}, {32, 128, 1024, 4096}}
	fmt.Println("co-running stride applications sharing one CMT (accelerator engine)")
	fmt.Printf("%-6s %-28s %12s %12s %9s %6s\n",
		"apps", "strides", "BS+DM ns", "SDAM ns", "speedup", "maps")

	for _, strides := range mixes {
		var ws []sdam.Workload
		for _, st := range strides {
			ws = append(ws, sdam.NewStrideCopy([]int{st, st}, 8_000, 128<<20))
		}
		base, err := sdam.CoRun(ws, sdam.Options{
			Kind:   sdam.BSDM,
			Engine: sdam.AcceleratorEngine(4),
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sdam.CoRun(ws, sdam.Options{
			Kind:     sdam.SDMBSMML,
			Clusters: 4,
			Engine:   sdam.AcceleratorEngine(4),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d %-28s %12.0f %12.0f %8.2fx %6d\n",
			len(ws), fmt.Sprint(strides), base.Run.TimeNs, res.Run.TimeNs,
			res.SpeedupOver(base), res.MappingsInstalled)
	}

	fmt.Println("\nthe CMT column counts live mappings: the boot default plus each app's")
	fmt.Println("own entries — an app's same-stride buffers share one, but apps never")
	fmt.Println("share, so identical patterns in two apps take two entries")
}
