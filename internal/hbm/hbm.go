// Package hbm is an event-driven timing model of an HBM2 device: the
// independent channels, per-channel banks with open-row buffers, and the
// DRAM timing constraints (precharge, activate, CAS, burst) that make
// channel-level parallelism the dominant bandwidth lever (paper §2.1).
//
// The model is deliberately at the level of detail the paper's claims
// live at: requests to different channels proceed fully in parallel,
// requests inside one channel serialize on the channel data bus, bank
// activations overlap with other banks' transfers (BLP), and row-buffer
// hits skip the activate cycle (RLP). Refresh and command-bus contention
// are omitted; they rescale absolute bandwidth without changing the
// relative shapes the evaluation reports.
package hbm

import (
	"fmt"

	"repro/internal/geom"
)

// Timing holds the DRAM timing parameters in nanoseconds.
type Timing struct {
	TRP    float64 // row precharge
	TRCD   float64 // row activate (RAS-to-CAS)
	TCL    float64 // CAS latency
	TBurst float64 // data-bus occupancy of one 64 B line transfer
	TFront float64 // controller/PHY front-end latency added per access

	// TREFI/TRFC enable refresh modeling: every TREFI nanoseconds each
	// channel stalls for TRFC and loses its open rows. TREFI = 0
	// disables refresh (the default — it costs a uniform ~TRFC/TREFI of
	// bandwidth across every configuration and so never changes the
	// comparisons; enable it for absolute-bandwidth studies).
	TREFI float64
	TRFC  float64
}

// WithRefresh returns the timing with DDR4/HBM2-class refresh enabled
// (3.9 µs interval, 260 ns refresh cycle).
func (t Timing) WithRefresh() Timing {
	t.TREFI = 3900
	t.TRFC = 260
	return t
}

// DefaultTiming returns HBM2-class timings: ~14 ns core latencies, an
// 8 ns burst per 64 B line per channel (≈8 GB/s/channel; 32 channels
// ≈256 GB/s peak), and an 80 ns controller/PHY front end. The unloaded
// miss latency lands at ≈130 ns, matching the paper's ">130 ns HBM
// access latency" against which the 6 ns CMT lookup is negligible.
func DefaultTiming() Timing {
	return Timing{TRP: 14, TRCD: 14, TCL: 14, TBurst: 8, TFront: 80}
}

// Scale returns the timing slowed by factor f (f=2 halves the memory
// frequency). Used by the Fig 14 frequency sweep. Every parameter is a
// duration in ns, so all of them dilate — including TREFI/TRFC, which
// an earlier version dropped, silently disabling refresh on any scaled
// refresh-enabled timing.
func (t Timing) Scale(f float64) Timing {
	return Timing{
		TRP: t.TRP * f, TRCD: t.TRCD * f, TCL: t.TCL * f,
		TBurst: t.TBurst * f, TFront: t.TFront * f,
		TREFI: t.TREFI * f, TRFC: t.TRFC * f,
	}
}

// MissLatency is the unloaded latency of a row-buffer miss.
func (t Timing) MissLatency() float64 { return t.TFront + t.TRP + t.TRCD + t.TCL + t.TBurst }

// Device simulates one HBM stack pair. It is not safe for concurrent
// use; the memory controller serializes request issue, as the real
// controller's front end does.
type Device struct {
	geom   geom.Geometry
	dec    geom.Decoder
	timing Timing
	banks  int // row stride of the flattened bank planes

	// Bank state lives in stride-indexed structure-of-arrays planes
	// ([ch*banks+bank]) carved out of one float64 backing allocation,
	// replacing the per-channel slice-of-slices whose every access paid
	// a pointer chase and whose construction paid ~3 allocations per
	// channel per cell. openRow is int32 (DRAM row numbers are small)
	// to halve its footprint; -1 = closed.
	busFree     []float64 // per-channel data-bus availability
	nextRefresh []float64 // per-channel next refresh deadline (TREFI > 0)
	bankBusy    []float64 // per (ch,bank): last transfer completion
	colReady    []float64 // per (ch,bank): earliest next column command
	openRow     []int32   // per (ch,bank) open row
	backing     []float64 // the one allocation behind the float planes

	stats Stats
}

// Stats aggregates device activity since the last Reset.
type Stats struct {
	Requests  uint64
	Bytes     uint64
	RowHits   uint64
	RowMisses uint64
	Refreshes uint64
	// LastFinish is the completion time of the latest-finishing request
	// (the makespan when requests start at t=0).
	LastFinish float64
	// ChannelBytes and ChannelBusy record per-channel load for CLP
	// utilization reports.
	ChannelBytes []uint64
	ChannelBusy  []float64
}

// New creates a device with the given geometry and timing. The bank
// planes and per-channel stats are sized here, once: a device's
// geometry never changes, so Reset only has to clear them.
func New(g geom.Geometry, t Timing) *Device {
	if err := g.Check(); err != nil {
		panic("hbm: " + err.Error())
	}
	ch, nb := g.Channels, g.Channels*g.Banks
	b := make([]float64, 2*ch+2*nb)
	d := &Device{
		geom: g, dec: g.NewDecoder(), timing: t, banks: g.Banks,
		busFree:     b[:ch:ch],
		nextRefresh: b[ch : 2*ch : 2*ch],
		bankBusy:    b[2*ch : 2*ch+nb : 2*ch+nb],
		colReady:    b[2*ch+nb:],
		openRow:     make([]int32, nb),
		backing:     b,
	}
	d.stats.ChannelBytes = make([]uint64, ch)
	d.stats.ChannelBusy = make([]float64, ch)
	d.Reset()
	return d
}

// Geometry returns the device geometry.
func (d *Device) Geometry() geom.Geometry { return d.geom }

// Decode splits a line address into HA fields through the device's
// precomputed decoder — same result as Geometry().Decode, without
// re-deriving the field widths per access.
func (d *Device) Decode(l geom.LineAddr) geom.HardwareAddress { return d.dec.Decode(l) }

// Timing returns the device timing.
func (d *Device) Timing() Timing { return d.timing }

// Reset clears all bank state and statistics, restoring the state New
// produces without allocating.
//
//sdam:noalloc
func (d *Device) Reset() {
	clear(d.backing)
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	for c := range d.nextRefresh {
		d.nextRefresh[c] = d.timing.TREFI
	}
	clear(d.stats.ChannelBytes)
	clear(d.stats.ChannelBusy)
	d.stats = Stats{ChannelBytes: d.stats.ChannelBytes, ChannelBusy: d.stats.ChannelBusy}
}

// Access issues one 64 B line access to hardware address ha arriving at
// time `at` (ns) and returns its completion time. Open-page policy:
// the accessed row stays open.
//
//sdam:noalloc
func (d *Device) Access(at float64, ha geom.HardwareAddress) float64 {
	return d.access(at, ha.Channel, ha.Bank, ha.Row)
}

// AccessLine decodes the hardware line address through the device's
// precomputed decoder and issues it in the same pass — the fused
// decode+issue path the memory controller uses, sparing the
// HardwareAddress round trip per access.
//
//sdam:noalloc
func (d *Device) AccessLine(at float64, l geom.LineAddr) float64 {
	ha := d.dec.Decode(l)
	return d.access(at, ha.Channel, ha.Bank, ha.Row)
}

// access is the timing core shared by Access and AccessLine. The
// floating-point operations and their order are exactly those of the
// original nested-slice implementation — only the indexing changed —
// so completion times are bit-identical.
//
//sdam:noalloc
func (d *Device) access(at float64, ch, bank, row int) float64 {
	t := &d.timing
	at += t.TFront // request traverses the controller front end
	bi := ch*d.banks + bank

	// Refresh: when the request would start past the channel's refresh
	// deadline, the channel first stalls for TRFC and loses its open
	// rows. Catch up on any deadlines that passed while idle.
	if t.TREFI > 0 {
		for at >= d.nextRefresh[ch] || d.busFree[ch] >= d.nextRefresh[ch] {
			end := d.nextRefresh[ch] + t.TRFC
			if d.busFree[ch] < end {
				d.busFree[ch] = end
			}
			for b := ch * d.banks; b < (ch+1)*d.banks; b++ {
				d.openRow[b] = -1
				if d.bankBusy[b] < end {
					d.bankBusy[b] = end
				}
				if d.colReady[b] < end {
					d.colReady[b] = end
				}
			}
			d.nextRefresh[ch] += t.TREFI
			d.stats.Refreshes++
		}
	}

	var colIssue float64
	if int(d.openRow[bi]) != row {
		// Row miss: the activate waits for the bank's outstanding
		// transfer, precharges the old row (if any), then opens the new
		// one. Activations in other banks of the same channel overlap
		// freely — that is bank-level parallelism.
		actStart := at
		if b := d.bankBusy[bi]; b > actStart {
			actStart = b
		}
		if d.openRow[bi] >= 0 {
			actStart += t.TRP
		}
		colIssue = actStart + t.TRCD
		d.openRow[bi] = int32(row)
		d.stats.RowMisses++
	} else {
		// Row hit: column commands to an open row pipeline at the
		// column-to-column cadence (≈ one burst), so CAS latency adds
		// delay but not serialization.
		colIssue = at
		if r := d.colReady[bi]; r > colIssue {
			colIssue = r
		}
		d.stats.RowHits++
	}
	dataStart := colIssue + t.TCL
	if f := d.busFree[ch]; f > dataStart {
		dataStart = f
	}
	finish := dataStart + t.TBurst

	d.busFree[ch] = finish
	d.bankBusy[bi] = finish
	d.colReady[bi] = dataStart - t.TCL + t.TBurst

	d.stats.Requests++
	d.stats.Bytes += geom.LineBytes
	d.stats.ChannelBytes[ch] += geom.LineBytes
	d.stats.ChannelBusy[ch] += t.TBurst
	if finish > d.stats.LastFinish {
		d.stats.LastFinish = finish
	}
	return finish
}

// Stats returns a copy of the accumulated statistics.
func (d *Device) Stats() Stats {
	s := d.stats
	s.ChannelBytes = append([]uint64(nil), d.stats.ChannelBytes...)
	s.ChannelBusy = append([]float64(nil), d.stats.ChannelBusy...)
	return s
}

// ThroughputGBs returns the achieved bandwidth in GB/s assuming the
// request stream started at t=0.
func (s Stats) ThroughputGBs() float64 {
	if s.LastFinish <= 0 {
		return 0
	}
	return float64(s.Bytes) / s.LastFinish // bytes/ns == GB/s
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// ChannelsUsed counts channels that served at least one request.
func (s Stats) ChannelsUsed() int {
	n := 0
	for _, b := range s.ChannelBytes {
		if b > 0 {
			n++
		}
	}
	return n
}

// CLPUtilization measures how evenly load spread across channels: the
// achieved bandwidth divided by the bandwidth the busiest channel's load
// would allow if every channel carried that much. 1.0 means perfectly
// balanced use of all channels; 1/N means a single hot channel.
func (s Stats) CLPUtilization() float64 {
	if len(s.ChannelBytes) == 0 || s.Bytes == 0 {
		return 0
	}
	var max uint64
	for _, b := range s.ChannelBytes {
		if b > max {
			max = b
		}
	}
	if max == 0 {
		return 0
	}
	return float64(s.Bytes) / (float64(max) * float64(len(s.ChannelBytes)))
}

// PeakGBs returns the theoretical peak bandwidth of the device: every
// channel streaming back-to-back bursts.
func (d *Device) PeakGBs() float64 {
	return float64(d.geom.Channels) * geom.LineBytes / d.timing.TBurst
}

// CheckConservation verifies the accounting invariants (DESIGN.md §7.7):
// served bytes equal requests×line size and no channel was busy longer
// than the makespan.
func (d *Device) CheckConservation() error {
	s := d.stats
	if s.Bytes != s.Requests*geom.LineBytes {
		return fmt.Errorf("hbm: %d bytes served for %d requests", s.Bytes, s.Requests)
	}
	var sum uint64
	for c, b := range s.ChannelBytes {
		sum += b
		if s.ChannelBusy[c] > s.LastFinish+1e-9 {
			return fmt.Errorf("hbm: channel %d busy %.1f ns > makespan %.1f ns", c, s.ChannelBusy[c], s.LastFinish)
		}
	}
	if sum != s.Bytes {
		return fmt.Errorf("hbm: per-channel bytes %d != total %d", sum, s.Bytes)
	}
	if s.RowHits+s.RowMisses != s.Requests {
		return fmt.Errorf("hbm: hits+misses %d != requests %d", s.RowHits+s.RowMisses, s.Requests)
	}
	return nil
}
