// Command afbench regenerates the paper's evaluation figures on the
// simulated testbed.
//
// Usage:
//
//	afbench -fig all                 # every figure at default scale
//	afbench -fig 10 -scale 1.0       # full-size Figure 10 (slow)
//	afbench -fig 4 -series           # Figure 4 with the raw IOPS series
//
// Figures: 1 (thread sweep), 3 (latency breakdown), 4 (log vs no-log),
// 9 (stepwise optimizations), 10 (VM fleet), 11 (SolidFire comparison),
// 12 (scale-out), breakdown (per-segment latency attribution with
// p50/p99, §3 methodology), backends (journal+filestore vs direct-write
// write amplification), scrub (client impact and time-to-detect/repair
// for background scrub off/throttled/unthrottled under injected bit-rot),
// scenarios (multi-tenant SLO classes with admission control on/off),
// ecvsrep (3x replication vs RS(4,2) erasure coding: write amplification,
// space overhead, CPU cost and degraded-read latency on both backends).
// See EXPERIMENTS.md for paper-vs-measured notes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/figures"
	"repro/internal/osd"
	"repro/internal/prof"
)

func main() {
	var (
		figList   = flag.String("fig", "all", "comma-separated figure list: 1,3,4,9,10,11,12,breakdown,backends,scrub,scenarios,ecvsrep,load,mixed,dropin or 'all'")
		scale     = flag.Float64("scale", 0.25, "experiment scale in (0,1]: multiplies VM counts and runtimes")
		runtime   = flag.Float64("runtime", 2.0, "measured seconds per point at scale=1")
		ramp      = flag.Float64("ramp", 0.6, "warm-up seconds per point at scale=1")
		journalMB = flag.Int("journal-mb", 96, "per-OSD journal ring MB (0 = paper's 2GB)")
		seed      = flag.Uint64("seed", 1, "random seed (runs are deterministic per seed)")
		series    = flag.Bool("series", false, "also dump time series data (fig 4)")
		csv       = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
		vms       = flag.String("vms", "", "override Fig10 VM counts, e.g. 10,40,80")
		panels    = flag.String("panels", "", "restrict Fig10 panels, e.g. 4K-randwrite,seq-write")
		nodes     = flag.String("nodes", "", "override Fig12 node counts, e.g. 4,8,16")
		perfDump  = flag.Bool("perf-dump", false, "with breakdown: also print the cluster perf-counter dump (JSON)")
		traceOut  = flag.String("trace-out", "", "with breakdown: write the breakdown table as CSV to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	defer prof.Start(*cpuProf, *memProf)()

	if *scale <= 0 || *scale > 1 {
		fmt.Fprintln(os.Stderr, "afbench: -scale must be in (0,1]")
		os.Exit(2)
	}
	opt := figures.Options{
		Scale:      *scale,
		RuntimeSec: *runtime,
		RampSec:    *ramp,
		JournalMB:  *journalMB,
		Seed:       *seed,
	}

	want := map[string]bool{}
	if *figList == "all" {
		for _, f := range []string{"1", "3", "4", "9", "10", "11", "12", "breakdown", "backends", "scrub", "scenarios", "ecvsrep"} {
			want[f] = true
		}
	} else {
		for _, f := range strings.Split(*figList, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}

	parseInts := func(s string) []int {
		if s == "" {
			return nil
		}
		var out []int
		for _, part := range strings.Split(s, ",") {
			var v int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil {
				fmt.Fprintf(os.Stderr, "afbench: bad integer list %q\n", s)
				os.Exit(2)
			}
			out = append(out, v)
		}
		return out
	}
	var panelList []string
	if *panels != "" {
		panelList = strings.Split(*panels, ",")
	}

	emit := func(rep figures.Report) {
		if *csv {
			fmt.Printf("# %s\n%s\n", rep.Title, rep.CSV())
		} else {
			fmt.Println(rep.String())
		}
		if *series && len(rep.Series) > 0 {
			fmt.Println(figures.RenderSeries(rep))
		}
	}

	if want["1"] {
		emit(figures.Fig1(opt))
	}
	if want["3"] {
		emit(figures.Fig3(opt))
	}
	if want["4"] {
		emit(figures.Fig4(opt))
	}
	if want["9"] {
		emit(figures.Fig9(opt))
	}
	if want["10"] {
		emit(figures.Fig10(opt, parseInts(*vms), panelList))
	}
	if want["11"] {
		emit(figures.Fig11(opt))
	}
	if want["12"] {
		emit(figures.Fig12(opt, parseInts(*nodes)))
	}
	if want["breakdown"] {
		var rep figures.Report
		var perf string
		if *perfDump {
			rep, perf = figures.LatencyBreakdownWithPerf(opt)
		} else {
			rep = figures.LatencyBreakdown(opt)
		}
		emit(rep)
		if perf != "" {
			fmt.Println(perf)
		}
		if *traceOut != "" {
			if err := os.WriteFile(*traceOut, []byte(rep.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "afbench:", err)
				os.Exit(1)
			}
		}
	}
	if want["backends"] {
		emit(figures.Backends(opt, nil))
	}
	if want["scrub"] {
		emit(figures.Scrub(opt))
	}
	if want["scenarios"] {
		emit(figures.Scenarios(opt))
	}
	if want["ecvsrep"] {
		emit(figures.ECvsRep(opt))
	}
	if want["dropin"] {
		emit(figures.DropIn(opt))
	}
	if want["mixed"] {
		emit(figures.MixedRW(opt, nil))
	}
	if want["load"] {
		emit(figures.LatencyVsLoad(opt, "community", osd.Community()))
		emit(figures.LatencyVsLoad(opt, "afceph", osd.AFCeph()))
	}
}
