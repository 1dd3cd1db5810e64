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
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/figures"
	"repro/internal/osd"
	"repro/internal/prof"
)

// allFigures are the figures -fig all runs; extraFigures are the ones run
// only by name.
var (
	allFigures   = []string{"1", "3", "4", "9", "10", "11", "12", "breakdown", "backends", "scrub", "scenarios", "ecvsrep"}
	extraFigures = []string{"load", "mixed", "dropin"}
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is afbench with its arguments and streams, returning the exit
// status: 2 for a bad flag, 1 for a failed write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("afbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figList   = fs.String("fig", "all", "comma-separated figure list: 1,3,4,9,10,11,12,breakdown,backends,scrub,scenarios,ecvsrep,load,mixed,dropin or 'all'")
		scale     = fs.Float64("scale", 0.25, "experiment scale in (0,1]: multiplies VM counts and runtimes")
		runtime   = fs.Float64("runtime", 2.0, "measured seconds per point at scale=1")
		ramp      = fs.Float64("ramp", 0.6, "warm-up seconds per point at scale=1")
		journalMB = fs.Int("journal-mb", 96, "per-OSD journal ring MB (0 = paper's 2GB)")
		seed      = fs.Uint64("seed", 1, "random seed (runs are deterministic per seed)")
		series    = fs.Bool("series", false, "also dump time series data (fig 4)")
		csv       = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		vms       = fs.String("vms", "", "override Fig10 VM counts, e.g. 10,40,80")
		panels    = fs.String("panels", "", "restrict Fig10 panels, e.g. 4K-randwrite,seq-write")
		nodes     = fs.String("nodes", "", "override Fig12 node counts, e.g. 4,8,16")
		perfDump  = fs.Bool("perf-dump", false, "with breakdown: also print the cluster perf-counter dump (JSON)")
		traceOut  = fs.String("trace-out", "", "with breakdown: write the breakdown table as CSV to this file")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bad := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "afbench: "+format+"\n", a...)
		return 2
	}
	switch {
	case *scale <= 0 || *scale > 1:
		return bad("-scale must be in (0,1]")
	case *runtime <= 0:
		return bad("-runtime must be positive")
	case *ramp < 0:
		return bad("-ramp must not be negative")
	}
	list := *figList
	if list == "all" {
		list = strings.Join(allFigures, ",")
	}
	figs, err := names("-fig", list, append(allFigures, extraFigures...))
	if err != nil {
		return bad("%v", err)
	}
	want := map[string]bool{}
	for _, f := range figs {
		want[f] = true
	}
	var panelList []string
	if *panels != "" {
		if panelList, err = names("-panels", *panels, figures.Fig10Panels()); err != nil {
			return bad("%v", err)
		}
	}
	vmCounts, err := counts("-vms", *vms)
	if err != nil {
		return bad("%v", err)
	}
	nodeCounts, err := counts("-nodes", *nodes)
	if err != nil {
		return bad("%v", err)
	}
	defer prof.Start(*cpuProf, *memProf)()

	opt := figures.Options{
		Scale:      *scale,
		RuntimeSec: *runtime,
		RampSec:    *ramp,
		JournalMB:  *journalMB,
		Seed:       *seed,
	}
	emit := func(rep figures.Report) {
		if *csv {
			fmt.Fprintf(stdout, "# %s\n%s\n", rep.Title, rep.CSV())
		} else {
			fmt.Fprintln(stdout, rep.String())
		}
		if *series && len(rep.Series) > 0 {
			fmt.Fprintln(stdout, figures.RenderSeries(rep))
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
		emit(figures.Fig10(opt, vmCounts, panelList))
	}
	if want["11"] {
		emit(figures.Fig11(opt))
	}
	if want["12"] {
		emit(figures.Fig12(opt, nodeCounts))
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
			fmt.Fprintln(stdout, perf)
		}
		if *traceOut != "" {
			if err := os.WriteFile(*traceOut, []byte(rep.CSV()), 0o644); err != nil {
				fmt.Fprintln(stderr, "afbench:", err)
				return 1
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
	return 0
}

// names splits the comma-separated list given to option and checks each
// name against valid.
func names(option, list string, valid []string) ([]string, error) {
	var out []string
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if !slices.Contains(valid, n) {
			return nil, fmt.Errorf("%s: unknown name %q (valid: %s)", option, n, strings.Join(valid, ","))
		}
		out = append(out, n)
	}
	return out, nil
}

// counts parses the comma-separated list of counts given to option; every
// entry must be at least 1. An empty list means the figure's default.
func counts(option, list string) ([]int, error) {
	if list == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(list, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil {
			return nil, fmt.Errorf("%s: bad integer list %q", option, list)
		}
		if v < 1 {
			return nil, fmt.Errorf("%s: %d is below 1", option, v)
		}
		out = append(out, v)
	}
	return out, nil
}
