package figures

import (
	"fmt"

	"repro/internal/osd"
	"repro/internal/sim"
	"repro/internal/solidfire"
	"repro/internal/workload"
)

// fig10Workloads are the six panels of Figure 10.
var fig10Workloads = []struct {
	Name    string
	Pattern workload.Pattern
	BS      int64
	Depth   int
}{
	{"4K-randwrite", workload.RandWrite, 4096, 8},
	{"32K-randwrite", workload.RandWrite, 32768, 8},
	{"seq-write", workload.SeqWrite, 1 << 20, 4},
	{"4K-randread", workload.RandRead, 4096, 8},
	{"32K-randread", workload.RandRead, 32768, 8},
	{"seq-read", workload.SeqRead, 1 << 20, 4},
}

// Fig10 reproduces Figure 10: community vs AFCeph across VM counts for all
// six workload panels (sustained state). The headline cells: 4K randwrite
// 22K IOPS / 58.2 ms (community, 80 VMs) vs 81K / 7.9 ms (AFCeph); ~4x at
// 32K; sequential parity; 4K randread ~2x under heavy load; AFCeph's 32K
// write dip at >=40 VMs when the journal ring fills.
func Fig10(opt Options, vmCounts []int, panels []string) Report {
	if len(vmCounts) == 0 {
		vmCounts = []int{10, 20, 40, 80}
	}
	rep := Report{
		Title:  "Figure 10: VM-fleet performance, community vs AFCeph (sustained)",
		Header: []string{"workload", "vms", "comm-iops", "comm-lat(ms)", "afc-iops", "afc-lat(ms)", "afc/comm"},
	}
	want := map[string]bool{}
	for _, p := range panels {
		want[p] = true
	}
	type f10Cell struct {
		wl      int
		vmsFull int
	}
	var cells []f10Cell
	for wi, wl := range fig10Workloads {
		if len(want) > 0 && !want[wl.Name] {
			continue
		}
		for _, vmsFull := range vmCounts {
			cells = append(cells, f10Cell{wl: wi, vmsFull: vmsFull})
		}
	}
	type f10Res struct{ comm, afc workload.Result }
	points := parallelPoints(opt.Workers, len(cells), func(i int) f10Res {
		wl, vmsFull := fig10Workloads[cells[i].wl], cells[i].vmsFull
		vms, depth := opt.scaleLoad(vmsFull, wl.Depth)
		ramp := opt.ramp()
		if wl.Pattern.IsWrite() {
			ramp = opt.rampWrite()
		}
		spec := workload.Spec{
			Pattern:   wl.Pattern,
			BlockSize: wl.BS,
			IODepth:   depth,
			Runtime:   opt.runtime(),
			Ramp:      ramp,
			Seed:      opt.Seed,
		}
		prefill := !wl.Pattern.IsWrite()
		commP := withJournal(profileParams(opt, osd.Community(), true), opt.JournalMB)
		comm := runPoint(commP, vms, 512<<20, spec, prefill)
		afcP := withJournal(profileParams(opt, osd.AFCeph(), true), opt.JournalMB)
		afc := runPoint(afcP, vms, 512<<20, spec, prefill)
		return f10Res{comm: comm, afc: afc}
	})
	for i, cell := range cells {
		comm, afc := points[i].comm, points[i].afc
		ratio := 0.0
		if comm.IOPS > 0 {
			ratio = afc.IOPS / comm.IOPS
		}
		rep.Rows = append(rep.Rows, []string{
			fig10Workloads[cell.wl].Name, fmt.Sprintf("%d", cell.vmsFull),
			f0(comm.IOPS), f1(comm.Lat.Mean),
			f0(afc.IOPS), f1(afc.Lat.Mean),
			f2(ratio),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper headline: 4K randwrite 22K/58.2ms (community) vs 81K/7.9ms (AFCeph) at 80 VMs;",
		"32K randwrite ~4x; sequential parity; 4K randread ~2x under heavy load;",
		fmt.Sprintf("journal ring scaled to %dMB so the >=40-VM fill-up dip is observable in-sim.", opt.JournalMB))
	return rep
}

// fig11Panels are the Figure 11 comparison workloads.
var fig11Panels = []struct {
	Name    string
	Pattern workload.Pattern
	BS      int64
	Depth   int
}{
	{"4K-randwrite", workload.RandWrite, 4096, 8},
	{"32K-randwrite", workload.RandWrite, 32768, 8},
	{"4K-randread", workload.RandRead, 4096, 8},
	{"32K-randread", workload.RandRead, 32768, 8},
	{"seq-write", workload.SeqWrite, 1 << 20, 4},
	{"seq-read", workload.SeqRead, 1 << 20, 4},
}

// solidfirePoint runs one workload on the SolidFire comparator.
func solidfirePoint(opt Options, pat workload.Pattern, bs int64, vms, depth int, ramp sim.Time) workload.Result {
	sf := solidfire.New(solidfire.DefaultParams())
	f := &workload.Fleet{Name: "solidfire"}
	for v := 0; v < vms; v++ {
		vol := sf.NewVolume(512 << 20)
		f.Jobs = append(f.Jobs, workload.Job{BD: vol, Spec: workload.Spec{
			Pattern:   pat,
			BlockSize: bs,
			IODepth:   depth,
			Runtime:   opt.runtime(),
			Ramp:      ramp,
			Seed:      opt.Seed + uint64(v),
		}})
	}
	if !pat.IsWrite() {
		var bds []workload.BlockDev
		for _, j := range f.Jobs {
			bds = append(bds, j.BD)
		}
		workload.Prefill(sf.K, bds, bs, bs*64)
	}
	res := f.Run(sf.K)
	noteSim(sf.K)
	return res
}

// Fig11 reproduces Figure 11: SolidFire vs AFCeph vs community at matched
// load. Paper: 4K randwrite 78K (SolidFire) vs 71K/3.4ms (AFCeph) vs 3K
// (community at matched latency); AFCeph best at 32K; SolidFire collapses
// on sequential (3-4x behind both Cephs) and degrades on 32K reads.
func Fig11(opt Options) Report {
	rep := Report{
		Title:  "Figure 11: SolidFire vs AFCeph vs community (max performance)",
		Header: []string{"workload", "sf-iops", "sf-lat", "afc-iops", "afc-lat", "comm-iops", "comm-lat", "sf-MB/s", "afc-MB/s", "comm-MB/s"},
	}
	type f11Res struct{ sf, afc, comm workload.Result }
	points := parallelPoints(opt.Workers, len(fig11Panels), func(i int) f11Res {
		pn := fig11Panels[i]
		vms, depth := opt.scaleLoad(40, pn.Depth)
		ramp := opt.ramp()
		if pn.Pattern.IsWrite() {
			ramp = opt.rampWrite()
		}
		runtime := opt.runtime()
		if !pn.Pattern.IsRand() {
			// A 1 MiB op is 256 scattered chunks on the chunk-fragmenting
			// SolidFire — second-class latency under load. The window must
			// dwarf it or fast ops alone would be counted.
			runtime *= 4
			if min := 3 * sim.Second; runtime < min {
				runtime = min
			}
			if min := 1500 * sim.Millisecond; ramp < min {
				ramp = min
			}
		}
		spec := workload.Spec{
			Pattern:   pn.Pattern,
			BlockSize: pn.BS,
			IODepth:   depth,
			Runtime:   runtime,
			Ramp:      ramp,
			Seed:      opt.Seed,
		}
		prefill := !pn.Pattern.IsWrite()
		sf := solidfirePoint(opt, pn.Pattern, pn.BS, vms, depth, ramp)
		afcP := profileParams(opt, osd.AFCeph(), true)
		afc := runPoint(afcP, vms, 512<<20, spec, prefill)
		commP := profileParams(opt, osd.Community(), true)
		comm := runPoint(commP, vms, 512<<20, spec, prefill)
		return f11Res{sf: sf, afc: afc, comm: comm}
	})
	for i, pn := range fig11Panels {
		sf, afc, comm := points[i].sf, points[i].afc, points[i].comm
		rep.Rows = append(rep.Rows, []string{
			pn.Name,
			f0(sf.IOPS), f1(sf.Lat.Mean),
			f0(afc.IOPS), f1(afc.Lat.Mean),
			f0(comm.IOPS), f1(comm.Lat.Mean),
			f0(sf.BWMBps), f0(afc.BWMBps), f0(comm.BWMBps),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper: SolidFire ~78K vs AFCeph ~71K on 4K randwrite (comparable);",
		"AFCeph ahead at 32K; both Cephs 3-4x SolidFire on sequential.")
	return rep
}

// Fig12 reproduces Figure 12: AFCeph scale-out across 4/8/16 OSD nodes,
// clean state. All workloads scale near-linearly except 16-node random
// read, capped by the SimpleMessenger's per-connection CPU overhead.
func Fig12(opt Options, nodeCounts []int) Report {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{4, 8, 16}
	}
	rep := Report{
		Title:  "Figure 12: AFCeph scale-out (clean state)",
		Header: []string{"workload", "nodes", "iops", "MB/s", "lat(ms)", "x-vs-4node"},
	}
	wls := []struct {
		Name    string
		Pattern workload.Pattern
		BS      int64
		Depth   int
	}{
		{"4K-randwrite", workload.RandWrite, 4096, 8},
		{"4K-randread", workload.RandRead, 4096, 8},
		{"seq-write", workload.SeqWrite, 1 << 20, 4},
		{"seq-read", workload.SeqRead, 1 << 20, 4},
	}
	points := parallelPoints(opt.Workers, len(wls)*len(nodeCounts), func(i int) workload.Result {
		wl, nodes := wls[i/len(nodeCounts)], nodeCounts[i%len(nodeCounts)]
		p := profileParams(opt, osd.AFCeph(), false)
		p.OSDNodes = nodes
		vms, depth := opt.scaleLoad(10*nodes, wl.Depth)
		spec := workload.Spec{
			Pattern:   wl.Pattern,
			BlockSize: wl.BS,
			IODepth:   depth,
			Runtime:   opt.runtime(),
			Ramp:      opt.ramp(),
			Seed:      opt.Seed,
		}
		return runPoint(p, vms, 512<<20, spec, !wl.Pattern.IsWrite())
	})
	for wi, wl := range wls {
		var base float64
		for ni, nodes := range nodeCounts {
			res := points[wi*len(nodeCounts)+ni]
			if base == 0 {
				base = res.IOPS
			}
			rep.Rows = append(rep.Rows, []string{
				wl.Name, fmt.Sprintf("%d", nodes),
				f0(res.IOPS), f0(res.BWMBps), f1(res.Lat.Mean), f2(res.IOPS / base),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"paper: near-linear scaling everywhere except 16-node random read,",
		"which is capped by SimpleMessenger per-connection CPU.")
	return rep
}

// LatencyVsLoad sweeps offered load for one profile — a supporting
// experiment used by EXPERIMENTS.md to locate each system's knee.
func LatencyVsLoad(opt Options, tuningName string, t osd.Tuning) Report {
	rep := Report{
		Title:  fmt.Sprintf("latency vs load (%s, 4K randwrite, sustained)", tuningName),
		Header: []string{"vms", "iops", "lat(ms)", "p99(ms)"},
	}
	loads := []int{5, 10, 20, 40, 80}
	points := parallelPoints(opt.Workers, len(loads), func(i int) workload.Result {
		vms, depth := opt.scaleLoad(loads[i], 8)
		p := profileParams(opt, t, true)
		return runPoint(p, vms, 512<<20, workload.Spec{
			Pattern:   workload.RandWrite,
			BlockSize: 4096,
			IODepth:   depth,
			Runtime:   opt.runtime(),
			Ramp:      opt.ramp(),
			Seed:      opt.Seed,
		}, false)
	})
	for i, vmsFull := range loads {
		res := points[i]
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", vmsFull), f0(res.IOPS), f1(res.Lat.Mean), f1(res.Lat.P99),
		})
	}
	return rep
}

// DropIn reproduces the paper's motivating observation (§1): replacing
// HDDs with SSDs barely helps stock Ceph's random I/O ("the drop-in
// replacement strategy does not work well in reality"), while the software
// optimizations unlock the flash.
func DropIn(opt Options) Report {
	rep := Report{
		Title:  "drop-in replacement (§1): community on HDD vs SSD vs AFCeph on SSD",
		Header: []string{"config", "4K-randwrite-iops", "lat(ms)", "x-vs-hdd"},
	}
	vms, depth := opt.scaleLoad(40, 8)
	run := func(t osd.Tuning, hdd bool) workload.Result {
		p := profileParams(opt, t, true)
		if hdd {
			// HDD-era filestore relies on page-cache writeback; the deep
			// writeback queue is what lets the disk elevator amortize seeks.
			p.OSD.FStore.ApplyWriteback = true
			// HDD-era deployments kept the (much smaller) hot metadata set
			// in RAM; synchronous metadata seeks were rare.
			p.OSD.FStore.MetaMissProb = 0.15
		}
		p.UseHDD = hdd
		runtime, ramp := opt.runtime(), opt.rampWrite()
		if hdd {
			// Seek-bound latencies are ~0.5s under this load; the window
			// must dwarf them.
			runtime *= 4
			if min := 4 * sim.Second; runtime < min {
				runtime = min
			}
			if min := 2 * sim.Second; ramp < min {
				ramp = min
			}
		}
		return runPoint(p, vms, 512<<20, workload.Spec{
			Pattern:   workload.RandWrite,
			BlockSize: 4096,
			IODepth:   depth,
			Runtime:   runtime,
			Ramp:      ramp,
			Seed:      opt.Seed,
		}, false)
	}
	configs := []struct {
		tuning osd.Tuning
		hdd    bool
	}{
		{osd.Community(), true},
		{osd.Community(), false},
		{osd.AFCeph(), false},
	}
	points := parallelPoints(opt.Workers, len(configs), func(i int) workload.Result {
		return run(configs[i].tuning, configs[i].hdd)
	})
	hdd, ssd, afc := points[0], points[1], points[2]
	base := hdd.IOPS
	if base <= 0 {
		base = 1
	}
	rep.Rows = append(rep.Rows,
		[]string{"community-hdd", f0(hdd.IOPS), f1(hdd.Lat.Mean), f2(hdd.IOPS / base)},
		[]string{"community-ssd", f0(ssd.IOPS), f1(ssd.Lat.Mean), f2(ssd.IOPS / base)},
		[]string{"afceph-ssd", f0(afc.IOPS), f1(afc.Lat.Mean), f2(afc.IOPS / base)},
	)
	rep.Notes = append(rep.Notes,
		"paper §1: the SSD swap alone leaves random I/O far below device capability;",
		"the software changes, not the media, deliver the gain.")
	return rep
}

// MixedRW compares the profiles under a mixed random read/write workload
// (fio rwmixread) — the pattern where the SSD mixed read/write penalty that
// the light-weight transaction avoids (§3.4) hurts most.
func MixedRW(opt Options, readPcts []int) Report {
	if len(readPcts) == 0 {
		readPcts = []int{30, 50, 70}
	}
	rep := Report{
		Title:  "mixed random 4K read/write, community vs AFCeph (sustained)",
		Header: []string{"read%", "comm-iops", "comm-lat(ms)", "afc-iops", "afc-lat(ms)", "afc/comm"},
	}
	vms, depth := opt.scaleLoad(40, 8)
	type mixRes struct{ comm, afc workload.Result }
	points := parallelPoints(opt.Workers, len(readPcts), func(i int) mixRes {
		spec := workload.Spec{
			Pattern:   workload.RandRW,
			BlockSize: 4096,
			ReadPct:   readPcts[i],
			IODepth:   depth,
			Runtime:   opt.runtime(),
			Ramp:      opt.rampWrite(),
			Seed:      opt.Seed,
		}
		commP := profileParams(opt, osd.Community(), true)
		comm := runPoint(commP, vms, 512<<20, spec, true)
		afcP := profileParams(opt, osd.AFCeph(), true)
		afc := runPoint(afcP, vms, 512<<20, spec, true)
		return mixRes{comm: comm, afc: afc}
	})
	for i, rp := range readPcts {
		comm, afc := points[i].comm, points[i].afc
		ratio := 0.0
		if comm.IOPS > 0 {
			ratio = afc.IOPS / comm.IOPS
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", rp),
			f0(comm.IOPS), f1(comm.Lat.Mean),
			f0(afc.IOPS), f1(afc.Lat.Mean),
			f2(ratio),
		})
	}
	rep.Notes = append(rep.Notes,
		"supporting experiment: §3.4's mixed read/write avoidance matters most here.")
	return rep
}

// LatencyVsLoadPoint runs one 4K-randwrite point at the given full-scale VM
// count and returns the raw result; the ablation benchmarks use it.
func LatencyVsLoadPoint(opt Options, t osd.Tuning, vmsFull int) workload.Result {
	vms, depth := opt.scaleLoad(vmsFull, 8)
	p := profileParams(opt, t, true)
	return runPoint(p, vms, 512<<20, workload.Spec{
		Pattern:   workload.RandWrite,
		BlockSize: 4096,
		IODepth:   depth,
		Runtime:   opt.runtime(),
		Ramp:      opt.rampWrite(),
		Seed:      opt.Seed,
	}, false)
}

// RenderSeries formats a report's time series as aligned columns of
// (seconds, value) pairs for plotting.
func RenderSeries(rep Report) string {
	var b []byte
	for _, ts := range rep.Series {
		b = append(b, fmt.Sprintf("# series %s\n", ts.Name)...)
		for i := range ts.T {
			b = append(b, fmt.Sprintf("%8.2f %10.0f\n", float64(ts.T[i])/float64(sim.Second), ts.V[i])...)
		}
	}
	return string(b)
}
