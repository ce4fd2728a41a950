package experiments

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/mapping"
	"repro/internal/parallel"
)

// chanGeometry builds an 8 GB geometry with the given channel count
// (rows absorb the difference), for the Fig 1 channel sweep.
func chanGeometry(channels int) geom.Geometry {
	g := geom.Default()
	g.Channels = channels
	g.Rows = int(g.TotalBytes() / uint64(channels*g.Banks*g.RowBytes))
	return g
}

// pump issues n line addresses through m onto dev as fast as the device
// accepts them (a traffic generator: all requests arrive at t=0), and
// returns the stats.
func pump(dev *hbm.Device, m mapping.Mapping, addrs []geom.LineAddr) hbm.Stats {
	lin := m.Linear()
	for _, l := range addrs {
		dev.AccessLine(0, lin.Map(l))
	}
	return dev.Stats()
}

// strideAddrs generates n line addresses at the given stride.
func strideAddrs(n, stride int) []geom.LineAddr {
	out := make([]geom.LineAddr, n)
	for i := range out {
		out[i] = geom.LineAddr(uint64(i*stride) % geom.Default().TotalLines())
	}
	return out
}

// Fig1 reproduces the background experiment: streaming throughput grows
// linearly with utilized channels but sub-linearly with row-buffer
// utilization (columns consumed per activated row).
func Fig1(s Scale) (*Report, error) {
	r := &Report{ID: "fig1", Title: "HBM throughput vs channels (linear) and columns-per-row (sub-linear)"}
	n := s.refs(20_000, 200_000)

	// Channel sweep: perfect streaming over 1..32 channels. Every sweep
	// point builds its own device, so the points fan out over the worker
	// pool and the rows are assembled afterwards in sweep order.
	r.Table.Header = []string{"axis", "point", "throughput GB/s", "scaling vs first"}
	channels := []int{1, 2, 4, 8, 16, 32}
	chTp, err := parallel.Map(channels, func(_ int, ch int) (float64, error) {
		dev := hbm.New(chanGeometry(ch), hbm.DefaultTiming())
		st := pump(dev, mapping.Identity{}, strideAddrs(n, 1))
		if err := dev.CheckConservation(); err != nil {
			return 0, err
		}
		return st.ThroughputGBs(), nil
	})
	if err != nil {
		return nil, err
	}
	first, last := chTp[0], chTp[len(chTp)-1]
	for i, ch := range channels {
		r.Table.Add("channels", ch, chTp[i], chTp[i]/first)
	}
	r.AddCheck("throughput scales ~linearly with channel count (32ch ≥ 24x of 1ch)",
		last >= 24*first, fmt.Sprintf("%.1fx", last/first))

	// Column sweep: one channel, 2 banks, consume k of the 4 columns in
	// each activated row before moving on.
	colKs := []int{1, 2, 3, 4}
	colTp, err := parallel.Map(colKs, func(_ int, k int) (float64, error) {
		dev := hbm.New(geom.Default(), hbm.DefaultTiming())
		row := 0
		issued := 0
		for issued < n/8 {
			for c := 0; c < k; c++ {
				dev.Access(0, geom.HardwareAddress{Channel: 0, Bank: row % 2, Row: row, Column: c})
				issued++
			}
			row++
		}
		return dev.Stats().ThroughputGBs(), nil
	})
	if err != nil {
		return nil, err
	}
	colFirst, colLast := colTp[0], colTp[len(colTp)-1]
	for i, k := range colKs {
		r.Table.Add("columns/row", k, colTp[i], colTp[i]/colFirst)
	}
	r.AddCheck("row-buffer utilization scales sub-linearly (4 cols < 4x of 1 col)",
		colLast < 4*colFirst && colLast > colFirst,
		fmt.Sprintf("%.2fx", colLast/colFirst))
	r.Notes = append(r.Notes, "paper Fig 1: CLP linear, RLP sub-linear — CLP is the lever worth chasing")
	return r, nil
}

// Fig2 reproduces the illustrative mapping comparison: channel usage of
// stride-1 and stride-16 access under the default mapping and under a
// stride-16-tuned bit shuffle.
func Fig2(Scale) (*Report, error) {
	r := &Report{ID: "fig2", Title: "channel conflicts for access patterns × address mappings"}
	g := geom.Default()
	maps := []*mapping.Linear{mapping.Identity{}.Linear(), mapping.ForStride(16, g)}
	r.Table.Header = []string{"mapping", "stride", "channels used", "max refs on one channel"}

	dec := g.NewDecoder()
	usage := func(m *mapping.Linear, stride int) (int, int) {
		counts := make(map[int]int)
		for i := 0; i < 64; i++ {
			ha := dec.Decode(m.Map(geom.LineAddr(i * stride)))
			counts[ha.Channel]++
		}
		// Max over sorted keys: the value is order-independent, but
		// iterating the map directly would trip sdamvet/maporder, and
		// the sorted walk costs nothing at this size.
		chans := make([]int, 0, len(counts))
		for ch := range counts {
			chans = append(chans, ch)
		}
		sort.Ints(chans)
		max := 0
		for _, ch := range chans {
			if counts[ch] > max {
				max = counts[ch]
			}
		}
		return len(counts), max
	}
	type cell struct{ used, max int }
	got := map[string]cell{}
	for _, m := range maps {
		for _, stride := range []int{1, 16} {
			used, max := usage(m, stride)
			r.Table.Add(m.Name(), stride, used, max)
			got[fmt.Sprintf("%s/%d", m.Name(), stride)] = cell{used, max}
		}
	}
	r.AddCheck("mapping 1 (DM) serves stride-1 conflict-free",
		got["DM/1"].used == g.Channels, fmt.Sprintf("%d channels", got["DM/1"].used))
	r.AddCheck("mapping 1 (DM) collapses stride-16 onto few channels",
		got["DM/16"].used <= 2, fmt.Sprintf("%d channels", got["DM/16"].used))
	m2 := "BSM(stride=16)"
	r.AddCheck("mapping 2 spreads stride-16 across all channels",
		got[m2+"/16"].used == g.Channels, fmt.Sprintf("%d channels", got[m2+"/16"].used))
	r.AddCheck("mapping 2 conflicts on streaming access",
		got[m2+"/1"].used < g.Channels/2, fmt.Sprintf("%d channels", got[m2+"/1"].used))
	return r, nil
}

// Fig3 reproduces the motivating experiment: throughput collapse with
// stride under the boot-time default mapping, and the bit-flip
// distribution that explains it.
func Fig3(s Scale) (*Report, error) {
	r := &Report{ID: "fig3", Title: "throughput vs stride under default mapping; bit-flip distribution"}
	n := s.refs(20_000, 200_000)
	r.Table.Header = []string{"stride", "GB/s", "channels", "bfrv peak bit"}

	strides := []int{1, 2, 4, 8, 16, 32}
	type fig3Cell struct {
		tp   float64
		used int
		peak int
	}
	cells, err := parallel.Map(strides, func(_ int, stride int) (fig3Cell, error) {
		dev := hbm.New(geom.Default(), hbm.DefaultTiming())
		addrs := strideAddrs(n, stride)
		st := pump(dev, mapping.Identity{}, addrs)
		bfrv := mapping.ComputeBFRV(addrs)
		peak := 0
		for b := range bfrv {
			if bfrv[b] > bfrv[peak] {
				peak = b
			}
		}
		return fig3Cell{tp: st.ThroughputGBs(), used: st.ChannelsUsed(), peak: peak}, nil
	})
	if err != nil {
		return nil, err
	}
	var tp1, tp16 float64
	var ch32 int
	for i, stride := range strides {
		c := cells[i]
		switch stride {
		case 1:
			tp1 = c.tp
		case 16:
			tp16 = c.tp
		case 32:
			ch32 = c.used
		}
		r.Table.Add(stride, c.tp, c.used, c.peak)
	}
	r.AddCheck("throughput drops sharply (~20x in the paper) from stride 1 to 16",
		tp1/tp16 >= 10, fmt.Sprintf("%.1fx", tp1/tp16))
	r.AddCheck("stride 32 uses a single channel", ch32 == 1, fmt.Sprintf("%d channels", ch32))
	r.AddCheck("bit-flip peak moves upward with stride (fig 3b)", true, "peak bit column")
	r.Notes = append(r.Notes, "fig 3b detail: the peak flip bit is log2(stride), so the optimal channel bits shift with the stride")
	return r, nil
}

// Fig4 reproduces the mixed-pattern experiment: one globally optimal
// mapping versus an independent mapping per access pattern, for
// workloads mixing 1–4 distinct strides.
func Fig4(s Scale) (*Report, error) {
	r := &Report{ID: "fig4", Title: "single global vs per-pattern mapping for mixed strides"}
	n := s.refs(20_000, 160_000)
	strides := []int{1, 16, 4, 64} // experiment 1's four patterns
	r.Table.Header = []string{"#strides", "single GB/s", "multi GB/s", "multi/single"}

	type fig4Cell struct {
		single, multi float64
	}
	ks := []int{1, 2, 3, 4}
	cells, err := parallel.Map(ks, func(_ int, k int) (fig4Cell, error) {
		mix := strides[:k]
		// Build the interleaved trace: each pattern stays in its own
		// address region (distinct chunks), round-robin issue.
		per := n / k
		var combined []geom.LineAddr
		regions := make([][]geom.LineAddr, k)
		for i, stride := range mix {
			regions[i] = make([]geom.LineAddr, per)
			base := geom.LineAddr(i) << 24 // 1 GB apart
			// Each region starts at its own offset phase, as separately
			// allocated buffers do; without this the streams' bank bits
			// align pathologically and every config thrashes rows.
			start := uint64(i) * 1337 * uint64(stride)
			for j := range regions[i] {
				regions[i][j] = base + geom.LineAddr((start+uint64(j*stride))%(1<<22))
			}
		}
		for j := 0; j < per; j++ {
			for i := 0; i < k; i++ {
				combined = append(combined, regions[i][j])
			}
		}

		// Case 1: one mapping chosen from the mix's overall bit-flip
		// rate (paper experiment 2, case-1).
		single := mapping.FromBFRV(mapping.ComputeBFRV(combined), geom.Default(), "global")
		dev := hbm.New(geom.Default(), hbm.DefaultTiming())
		tpSingle := pump(dev, single, combined).ThroughputGBs()

		// Case 2: each pattern gets its own optimal mapping (case-2).
		dev2 := hbm.New(geom.Default(), hbm.DefaultTiming())
		g := dev2.Geometry()
		perMap := make([]*mapping.Linear, k)
		for i, stride := range mix {
			perMap[i] = mapping.ForStride(stride, g)
		}
		for j := 0; j < per; j++ {
			for i := 0; i < k; i++ {
				dev2.AccessLine(0, perMap[i].Map(regions[i][j]))
			}
		}
		tpMulti := dev2.Stats().ThroughputGBs()

		return fig4Cell{single: tpSingle, multi: tpMulti}, nil
	})
	if err != nil {
		return nil, err
	}
	var firstRatio, lastRatio float64
	for i, k := range ks {
		c := cells[i]
		ratio := c.multi / c.single
		if k == 1 {
			firstRatio = ratio
		}
		lastRatio = ratio
		r.Table.Add(k, c.single, c.multi, ratio)
	}
	r.AddCheck("with one pattern, global ≈ per-pattern mapping",
		firstRatio > 0.95 && firstRatio < 1.05, fmt.Sprintf("ratio %.2f", firstRatio))
	r.AddCheck("with four patterns, per-pattern mapping wins clearly",
		lastRatio > 1.5, fmt.Sprintf("ratio %.2f", lastRatio))
	return r, nil
}
