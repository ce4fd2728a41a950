package vm

import "repro/internal/chunk"

// setEntry points vpn's page-table entry at frame f, bypassing the fault
// handler and the chunk allocator: tests use it to corrupt the table.
func (as *AddressSpace) setEntry(vpn uint64, f chunk.Frame) { *as.slot(vpn) = uint64(f) + 1 }

// leaves counts the page-table leaves allocated so far.
func (as *AddressSpace) leaves() int {
	n := 0
	for _, l := range as.dir {
		if l != nil {
			n++
		}
	}
	return n
}
