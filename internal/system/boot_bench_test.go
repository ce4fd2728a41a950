package system

import (
	"testing"

	"repro/internal/mapping"
)

// BenchmarkMachineBoot times the machine every cell builds: the HBM
// device, the kernel with its CMT and chunk allocator, and the
// controller, on the SDAM datapath and under one global mapping.
func BenchmarkMachineBoot(b *testing.B) {
	o := Options{}.withDefaults()
	for _, bc := range []struct {
		name   string
		global mapping.Mapping
	}{{"sdam", nil}, {"global", mapping.Identity{}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if boot(o, bc.global) == nil {
					b.Fatal("no machine")
				}
			}
		})
	}
}
