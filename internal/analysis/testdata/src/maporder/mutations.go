package fixture

import "fmt"

// The cases in this file reproduce scratch mutations of production code
// that compiled and passed go vet, go test ./..., go test -race -short
// ./... and go test -race ./internal/experiments; only this rule
// rejected them (DESIGN.md §30).

type selection struct {
	varMapping map[int]string
	varCluster map[int]int
}

// cmd/sdamprof's printSelection printing straight from the VarMapping
// map instead of walking sorted VIDs: no test reads its output order.
func printSelection(sel selection, site map[int]string) {
	for vid, m := range sel.varMapping {
		fmt.Printf("  %-28s cluster %d  %s\n", site[vid], sel.varCluster[vid], m) // want "call with visible effects"
	}
}

type block struct{ size, limit uint64 }

// heap.Allocator.CheckInvariants walking its blocks map directly: the
// violation it reports first depends on iteration order, and no test
// builds a heap with two violations.
func checkBlocks(blocks map[uint64]block) error {
	for va, b := range blocks {
		if va+b.size > b.limit {
			return fmt.Errorf("block %#x outside its heap", va) // want "return inside range over a map"
		}
	}
	return nil
}
