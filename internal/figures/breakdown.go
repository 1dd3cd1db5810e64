package figures

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/osd"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// LatencyBreakdown reproduces the paper's §3 attribution methodology on
// the Figure 1 write workload (community profile at its saturation point,
// 64 client threads as 4 VMs x depth 16): per-segment p50/p99/max/mean of
// the write path's telescoping critical-path segments, whose per-op
// deltas sum exactly to end-to-end latency. Two extra rows report the
// work that happens off the acked path: the post-ack filestore/KV apply
// and completion-dispatch queueing. Fully deterministic under the sim
// clock, so it is golden-tested like the paper figures.
func LatencyBreakdown(opt Options) Report {
	rep, _ := latencyBreakdown(opt, false)
	return rep
}

// LatencyBreakdownWithPerf additionally returns the cluster's perf-dump
// JSON captured after the run (the afbench/afsim -perf-dump hook).
func LatencyBreakdownWithPerf(opt Options) (Report, string) {
	return latencyBreakdown(opt, true)
}

func latencyBreakdown(opt Options, wantPerf bool) (Report, string) {
	p := withJournal(profileParams(opt, osd.Community(), true), opt.JournalMB)
	p.OSD.TraceSample = 5
	c := cluster.New(p)
	f := workload.VMFleet(c, 4, 512<<20, workload.Spec{
		Pattern:   workload.RandWrite,
		BlockSize: 4096,
		IODepth:   16,
		Runtime:   opt.runtime(),
		Ramp:      opt.ramp(),
		Seed:      opt.Seed,
	})
	res := f.Run(c.K)
	noteSim(c.K)

	agg := osd.NewTraceCollector(true)
	applyH := stats.NewHistogram()
	compH := stats.NewHistogram()
	for _, o := range c.OSDs() {
		agg.Merge(o.Traces())
		applyH.Merge(o.ApplyDelay)
		compH.Merge(o.CompletionQDelay)
	}

	rep := Report{
		Title:  "Latency breakdown: per-segment attribution on the Fig. 1 write workload (community, 64 threads)",
		Header: trace.BreakdownHeader,
	}
	var segMeanSum float64
	var e2e trace.BreakdownRow
	for _, r := range agg.Breakdown() {
		if r.Label == "end-to-end" {
			e2e = r
		} else {
			segMeanSum += r.Mean
		}
		rep.Rows = append(rep.Rows, r.Cells())
	}
	// Write-ahead order puts the filestore/KV apply after the client ack,
	// so it is reported outside the telescoping chain, as is the
	// commit/applied completion-dispatch queueing it overlaps.
	rep.Rows = append(rep.Rows, trace.RowFromHistogram("post-ack:kv-apply", applyH).Cells())
	rep.Rows = append(rep.Rows, trace.RowFromHistogram("async:completion-dispatch", compH).Cells())
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("workload: %s", res.String()),
		fmt.Sprintf("%d sampled spans; segment means sum to %.3f ms vs end-to-end mean %.3f ms (telescoping chain; quantile sums are approximate)",
			agg.Count(), segMeanSum, e2e.Mean),
		"paper §3: this per-stage attribution is what pinned the four bottlenecks (PG lock, throttles, logging, transactions)")

	perf := ""
	if wantPerf {
		perf = c.Perf().DumpJSON()
	}
	return rep, perf
}
