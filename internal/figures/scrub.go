package figures

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/osd"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scrub quantifies the cost and the benefit of online self-healing: one
// mixed random workload runs three times — scrub off, scrub throttled
// (bandwidth budget + one PG at a time + head-of-line yielding), and scrub
// unthrottled — while bit-rot is injected into cold primary copies mid-run.
// The table reports the client view (IOPS, mean and p99 latency) against
// the integrity view (findings, repairs, and the time from injection to
// detection and to repair). The story the rows tell: without scrub, cold
// rot sits undetected forever; unthrottled scrub detects fastest but taxes
// the client tail; the throttle buys the tail back at the price of slower
// detection.
func Scrub(opt Options) Report {
	rep := Report{
		Title: "scrub: client impact vs time-to-detect/repair for injected bit-rot (AFCeph tuning)",
		Header: []string{"mode", "iops", "lat-ms", "p99-ms",
			"scrubbed", "findings", "repairs", "read-repairs", "eios",
			"detected", "ttd-ms", "ttr-ms"},
	}
	modes := []struct {
		name string
		sp   cluster.ScrubParams
	}{
		{"off", cluster.ScrubParams{}},
		{"throttled", cluster.ScrubParams{
			Interval:         5 * sim.Millisecond,
			BytesPerSec:      128 << 20,
			MaxConcurrentPGs: 1,
			AutoRepair:       true,
			SettleDelay:      2 * sim.Millisecond,
		}},
		{"unthrottled", cluster.ScrubParams{
			Interval:         sim.Millisecond,
			MaxConcurrentPGs: 8,
			AutoRepair:       true,
			SettleDelay:      2 * sim.Millisecond,
		}},
	}
	const rotCount = 3
	rows := parallelPoints(opt.Workers, len(modes), func(mi int) []string {
		m := modes[mi]
		p := withJournal(profileParams(opt, osd.AFCeph(), true), opt.JournalMB)
		p.Scrub = m.sp
		vms, depth := opt.scaleLoad(8, 8)
		spec := workload.Spec{
			Pattern:   workload.RandRW,
			BlockSize: 4096,
			ReadPct:   70,
			IODepth:   depth,
			Runtime:   opt.runtime(),
			Ramp:      opt.rampWrite(),
			Seed:      opt.Seed,
		}
		c := cluster.New(p)
		f := workload.VMFleet(c, vms, 64<<20, spec)
		end := opt.rampWrite() + opt.runtime()

		// Rot injector: rot lands on COLD data — dedicated objects written
		// once and never read by the fleet — so client reads cannot stumble
		// into it and the background scrub is the only path to detection.
		// (Hot-data rot is the read-repair tests' territory; a client read
		// would heal it in every mode and flatten the comparison.) Each
		// injection corrupts the object's primary copy.
		type inj struct {
			oid string
			at  sim.Time
		}
		var injected []inj
		var injectDone bool
		ic := c.NewClient()
		c.K.Go("figure.rot", func(pp *sim.Proc) {
			ramp := opt.rampWrite()
			for i := 0; i < rotCount; i++ {
				at := ramp * sim.Time(i+1) / (rotCount + 1)
				if at > pp.Now() {
					pp.Sleep(at - pp.Now())
				}
				oid := fmt.Sprintf("scrub.cold.%d", i)
				ic.WriteObject(pp, oid, 0, 4096, 1000+uint64(i))
				pp.Sleep(10 * sim.Millisecond) // let replica applies settle
				if c.PrimaryFor(oid).Store().CorruptObject(oid) {
					injected = append(injected, inj{oid: oid, at: pp.Now()})
				}
			}
			injectDone = true
		})
		// Scrub keeps running for the whole client window (so the client
		// numbers include its full cost), then until every injected copy is
		// healed — that tail is where the slow modes pay their TTR — with a
		// hard deadline for the modes that never heal.
		c.K.Go("figure.monitor", func(pp *sim.Proc) {
			if end > pp.Now() {
				pp.Sleep(end - pp.Now())
			}
			deadline := end + 3*sim.Second
			for pp.Now() < deadline {
				clean := injectDone
				for _, in := range injected {
					for _, o := range c.OSDs() {
						if o.Store().ObjectDamaged(in.oid) {
							clean = false
						}
					}
				}
				if clean {
					break
				}
				pp.Sleep(10 * sim.Millisecond)
			}
			c.StopScrub()
		})
		res := f.Run(c.K)
		c.K.Run(sim.Forever)
		noteSim(c.K)

		var readRepairs, eios uint64
		for _, o := range c.OSDs() {
			readRepairs += o.Metrics().ReadRepairs.Value()
			eios += o.Metrics().EIOs.Value()
		}
		detected := 0
		var ttd, ttr sim.Time
		var healed int
		for _, in := range injected {
			var d, r sim.Time
			for _, ev := range c.IntegrityEvents() {
				if ev.OID != in.oid || ev.At < in.at {
					continue
				}
				if d == 0 && (ev.Kind == cluster.IntegrityFinding || ev.Kind == cluster.IntegrityReadRepair) {
					d = ev.At
				}
				if r == 0 && ev.Kind == cluster.IntegrityRepaired {
					r = ev.At
				}
			}
			if d > 0 {
				detected++
				ttd += d - in.at
			}
			if r > 0 {
				healed++
				ttr += r - in.at
			}
		}
		ttdCell, ttrCell := "-", "-"
		if detected > 0 {
			ttdCell = f1(float64(ttd) / float64(detected) / 1e6)
		}
		if healed > 0 {
			ttrCell = f1(float64(ttr) / float64(healed) / 1e6)
		}
		st := c.ScrubStats()
		return []string{
			m.name, f0(res.IOPS), f2(res.Lat.Mean), f2(res.Lat.P99),
			fmt.Sprintf("%d", st.ObjectsScrubbed.Value()),
			fmt.Sprintf("%d", st.Findings.Value()),
			fmt.Sprintf("%d", st.Repairs.Value()),
			fmt.Sprintf("%d", readRepairs),
			fmt.Sprintf("%d", eios),
			fmt.Sprintf("%d", detected),
			ttdCell, ttrCell,
		}
	})
	rep.Rows = append(rep.Rows, rows...)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d cold primary copies corrupted during the ramp of every mode; the run continues", rotCount),
		"past the client window until scrub heals them (or a 3s deadline for modes that cannot);",
		"ttd/ttr are mean injection-to-detection and injection-to-repair over the detected copies;",
		"the fleet never reads the cold objects, so read-repair cannot mask the scrub comparison.")
	return rep
}
