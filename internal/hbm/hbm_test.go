package hbm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func dev() *Device { return New(geom.Default(), DefaultTiming()) }

// stream issues n back-to-back line accesses round-robin over nCh
// channels, walking columns then banks within a channel — the layout a
// channel-interleaved decode produces for sequential addresses.
func stream(d *Device, n, nCh int) {
	g := d.Geometry()
	for i := 0; i < n; i++ {
		inCh := i / nCh
		ha := geom.HardwareAddress{
			Channel: i % nCh,
			Bank:    (inCh / g.LinesPerRow()) % g.Banks,
			Row:     inCh / g.LinesPerRow() / g.Banks,
			Column:  inCh % g.LinesPerRow(),
		}
		d.Access(0, ha)
	}
}

func TestThroughputScalesLinearlyWithChannels(t *testing.T) {
	// The Fig 1 headline: doubling channels doubles streaming bandwidth.
	var prev float64
	for _, nCh := range []int{1, 2, 4, 8, 16, 32} {
		d := dev()
		stream(d, 4096, nCh)
		if err := d.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		got := d.Stats().ThroughputGBs()
		if nCh > 1 {
			ratio := got / prev
			if ratio < 1.8 || ratio > 2.2 {
				t.Errorf("channels %d: throughput ratio %.2f, want ≈2", nCh, ratio)
			}
		}
		prev = got
	}
}

func TestSingleChannelApproachesBusLimit(t *testing.T) {
	d := dev()
	stream(d, 8192, 1)
	got := d.Stats().ThroughputGBs()
	limit := geom.LineBytes / d.Timing().TBurst
	if got > limit {
		t.Fatalf("throughput %.2f exceeds bus limit %.2f", got, limit)
	}
	if got < 0.95*limit {
		t.Fatalf("streaming throughput %.2f well below bus limit %.2f", got, limit)
	}
}

func TestRowMissesCostMoreThanHits(t *testing.T) {
	d := dev()
	// All accesses to one bank, alternating rows: every access misses.
	for i := 0; i < 1024; i++ {
		d.Access(0, geom.HardwareAddress{Channel: 0, Bank: 0, Row: i % 2, Column: 0})
	}
	missTime := d.Stats().LastFinish
	if d.Stats().RowHitRate() != 0 {
		t.Fatalf("alternating rows should never hit, hit rate %v", d.Stats().RowHitRate())
	}

	d.Reset()
	// Same bank, same row: all hits after the first.
	for i := 0; i < 1024; i++ {
		d.Access(0, geom.HardwareAddress{Channel: 0, Bank: 0, Row: 0, Column: i % 4})
	}
	hitTime := d.Stats().LastFinish
	if hitTime >= missTime {
		t.Fatalf("row hits (%.0f ns) not faster than misses (%.0f ns)", hitTime, missTime)
	}
}

func TestBankLevelParallelismHelpsWithinChannel(t *testing.T) {
	// Random-row accesses across many banks overlap activations and beat
	// the single-bank case (BLP), but both stay below multi-channel
	// streaming (CLP dominates — paper §2.1).
	d := dev()
	for i := 0; i < 2048; i++ {
		d.Access(0, geom.HardwareAddress{Channel: 0, Bank: i % 16, Row: i, Column: 0})
	}
	multiBank := d.Stats().ThroughputGBs()

	d.Reset()
	for i := 0; i < 2048; i++ {
		d.Access(0, geom.HardwareAddress{Channel: 0, Bank: 0, Row: i, Column: 0})
	}
	oneBank := d.Stats().ThroughputGBs()

	if multiBank <= oneBank {
		t.Fatalf("BLP gave no benefit: %d banks %.2f GB/s vs 1 bank %.2f GB/s", 16, multiBank, oneBank)
	}

	d.Reset()
	stream(d, 2048, 32)
	allChannels := d.Stats().ThroughputGBs()
	if allChannels <= multiBank {
		t.Fatalf("CLP (%.2f) should beat BLP (%.2f)", allChannels, multiBank)
	}
}

func TestPeakBandwidth(t *testing.T) {
	d := dev()
	want := 32.0 * 64 / 8
	if got := d.PeakGBs(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("PeakGBs = %v, want %v", got, want)
	}
}

func TestFrequencyScaling(t *testing.T) {
	slow := New(geom.Default(), DefaultTiming().Scale(4))
	fast := dev()
	stream(slow, 2048, 32)
	stream(fast, 2048, 32)
	ratio := fast.Stats().ThroughputGBs() / slow.Stats().ThroughputGBs()
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("4x slower clock gave throughput ratio %.2f, want ≈4", ratio)
	}
}

func TestCLPUtilization(t *testing.T) {
	d := dev()
	stream(d, 3200, 32)
	if u := d.Stats().CLPUtilization(); u < 0.99 {
		t.Errorf("balanced load CLP utilization %.3f, want ≈1", u)
	}
	d.Reset()
	stream(d, 3200, 1)
	if u := d.Stats().CLPUtilization(); math.Abs(u-1.0/32) > 1e-9 {
		t.Errorf("single-channel CLP utilization %.4f, want 1/32", u)
	}
	if n := d.Stats().ChannelsUsed(); n != 1 {
		t.Errorf("ChannelsUsed = %d, want 1", n)
	}
}

func TestStatsZeroValueSafe(t *testing.T) {
	var s Stats
	if s.ThroughputGBs() != 0 || s.RowHitRate() != 0 || s.CLPUtilization() != 0 || s.ChannelsUsed() != 0 {
		t.Fatal("zero-value stats should report zeros")
	}
}

func TestMissLatency(t *testing.T) {
	tm := DefaultTiming()
	if got := tm.MissLatency(); got != 80+14+14+14+8 {
		t.Fatalf("MissLatency = %v", got)
	}
	if tm.MissLatency() < 130 {
		t.Fatal("unloaded miss latency below the paper's >130ns HBM latency")
	}
}

func TestResetClearsState(t *testing.T) {
	d := dev()
	stream(d, 128, 4)
	d.Reset()
	s := d.Stats()
	if s.Requests != 0 || s.Bytes != 0 || s.LastFinish != 0 {
		t.Fatal("Reset did not clear stats")
	}
	// After reset the first access to a previously open row must miss.
	d.Access(0, geom.HardwareAddress{Channel: 0, Bank: 0, Row: 0, Column: 0})
	if d.Stats().RowMisses != 1 {
		t.Fatal("Reset did not close row buffers")
	}

	// A reset device is indistinguishable from a fresh one: after random
	// traffic with refresh on, Reset, a second seeded sequence must
	// finish at bit-identical times with identical stats.
	t.Run("MatchesFreshDevice", func(t *testing.T) {
		tm := DefaultTiming().WithRefresh().Scale(2)
		used, fresh := New(geom.Default(), tm), New(geom.Default(), tm)
		randomTraffic(used, 7)
		used.Reset()
		got, want := randomTraffic(used, 8), randomTraffic(fresh, 8)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("access %d after Reset finished at %v, fresh device at %v", i, got[i], want[i])
			}
		}
		if su, sf := used.Stats(), fresh.Stats(); !reflect.DeepEqual(su, sf) {
			t.Fatalf("stats after Reset diverge from a fresh device:\n%+v\n%+v", su, sf)
		}
	})
}

// randomTraffic issues 20 000 seeded accesses over a few rows per bank,
// so row hits and misses mix, with occasional idle gaps that cross
// refresh deadlines, and returns their completion times.
func randomTraffic(d *Device, seed int64) []float64 {
	g, r := d.Geometry(), rand.New(rand.NewSource(seed))
	done := make([]float64, 20_000)
	var at float64
	for i := range done {
		if r.Intn(16) == 0 {
			at += float64(r.Intn(5000))
		}
		done[i] = d.Access(at, geom.HardwareAddress{
			Channel: r.Intn(g.Channels),
			Bank:    r.Intn(g.Banks),
			Row:     r.Intn(4),
			Column:  r.Intn(g.LinesPerRow()),
		})
	}
	return done
}

func TestArrivalTimeRespected(t *testing.T) {
	d := dev()
	done := d.Access(1000, geom.HardwareAddress{Channel: 0, Bank: 0, Row: 0, Column: 0})
	if done < 1000+d.Timing().TRCD+d.Timing().TCL+d.Timing().TBurst {
		t.Fatalf("access finished at %.0f, before its own latency from arrival", done)
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid geometry")
		}
	}()
	New(geom.Geometry{Channels: 3}, DefaultTiming())
}

func TestThroughputNeverExceedsPeak(t *testing.T) {
	// Property: no trace, however friendly, can beat the aggregate bus
	// limit.
	d := dev()
	f := func(seeds []uint16) bool {
		d.Reset()
		if len(seeds) == 0 {
			return true
		}
		g := d.Geometry()
		for _, s := range seeds {
			ha := geom.HardwareAddress{
				Channel: int(s) % g.Channels,
				Bank:    int(s>>5) % g.Banks,
				Row:     int(s>>9) % g.Rows,
				Column:  int(s>>3) % g.LinesPerRow(),
			}
			d.Access(0, ha)
		}
		if err := d.CheckConservation(); err != nil {
			t.Log(err)
			return false
		}
		return d.Stats().ThroughputGBs() <= d.PeakGBs()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConservationAfterRandomTraffic(t *testing.T) {
	d := dev()
	r := rand.New(rand.NewSource(21))
	g := d.Geometry()
	for i := 0; i < 50_000; i++ {
		d.Access(float64(r.Intn(1000)), geom.HardwareAddress{
			Channel: r.Intn(g.Channels),
			Bank:    r.Intn(g.Banks),
			Row:     r.Intn(g.Rows),
			Column:  r.Intn(g.LinesPerRow()),
		})
	}
	if err := d.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.RowHitRate() < 0 || s.RowHitRate() > 1 {
		t.Fatalf("hit rate %v out of range", s.RowHitRate())
	}
}

func TestRefreshCostsBandwidth(t *testing.T) {
	base := dev()
	stream(base, 60_000, 32)
	plain := base.Stats().ThroughputGBs()

	withRef := New(geom.Default(), DefaultTiming().WithRefresh())
	stream(withRef, 60_000, 32)
	refreshed := withRef.Stats().ThroughputGBs()

	if withRef.Stats().Refreshes == 0 {
		t.Fatal("no refreshes occurred over a multi-TREFI run")
	}
	loss := 1 - refreshed/plain
	// The theoretical tax is TRFC/TREFI ≈ 6.7%; allow slack for the
	// row-reopen cost after each refresh.
	if loss < 0.03 || loss > 0.15 {
		t.Fatalf("refresh bandwidth loss %.1f%%, want ~6.7%%", loss*100)
	}
	if err := withRef.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	d := New(geom.Default(), DefaultTiming().WithRefresh())
	// Open a row, then arrive long after the next refresh deadline: the
	// access must pay a full activate again.
	d.Access(0, geom.HardwareAddress{Channel: 0, Bank: 0, Row: 5, Column: 0})
	d.Access(10_000, geom.HardwareAddress{Channel: 0, Bank: 0, Row: 5, Column: 1})
	if d.Stats().RowHits != 0 {
		t.Fatalf("row survived a refresh: %d hits", d.Stats().RowHits)
	}
}

func TestRefreshDisabledByDefault(t *testing.T) {
	d := dev()
	stream(d, 10_000, 32)
	if d.Stats().Refreshes != 0 {
		t.Fatal("refreshes with TREFI=0")
	}
}
