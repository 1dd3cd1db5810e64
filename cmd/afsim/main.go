// Command afsim runs one fio-style workload against one cluster profile
// and prints a full report: throughput, latency percentiles, write-path
// stage breakdown, PG lock contention, CPU utilization and journal state.
//
// Usage:
//
//	afsim -profile afceph -rw randwrite -bs 4096 -vms 20 -iodepth 8
//	afsim -profile community -rw randread -bs 32768 -prefill
//	afsim -profile afceph -no-light-tx    # ablation: AFCeph minus light tx
//	afsim -fail-at 500 -recover-at 1500   # crash osd.0 mid-run, watch the dip
//	afsim -pool ec4+2 -rw randwrite       # RS(4,2) erasure-coded pool
//	afsim -scenario examples/scenarios/noisy-neighbor.json   # multi-tenant scenario
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/afceph"
	"repro/internal/cluster"
	"repro/internal/osd"
	"repro/internal/prof"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// runSweep executes the iodepth sweep through the public API, building a
// fresh cluster per point.
func runSweep(cfg afceph.Config, rw string, bs int64, vms int, imageSize int64, runtime, ramp, maxLat float64) {
	depths := []int{1, 2, 4, 8, 16, 32}
	fmt.Printf("%-8s %10s %10s %10s\n", "iodepth", "iops", "lat(ms)", "p99(ms)")
	bestIdx, bestIOPS := -1, 0.0
	results := make([]afceph.FioResult, len(depths))
	for i, d := range depths {
		c := afceph.New(cfg)
		res, err := c.RunFio(afceph.FioSpec{
			Workload:   rw,
			BlockSize:  bs,
			VMs:        vms,
			IODepth:    d,
			ImageSize:  imageSize,
			RuntimeSec: runtime,
			RampSec:    ramp,
			Prefill:    rw == "randread" || rw == "read",
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "afsim:", err)
			os.Exit(1)
		}
		results[i] = res
		if maxLat > 0 && res.LatMeanMs > maxLat {
			continue
		}
		if bestIdx < 0 || res.IOPS > bestIOPS {
			bestIdx, bestIOPS = i, res.IOPS
		}
	}
	for i, d := range depths {
		mark := " "
		if i == bestIdx {
			mark = "*"
		}
		fmt.Printf("%s%-7d %10.0f %10.2f %10.2f\n", mark, d, results[i].IOPS, results[i].LatMeanMs, results[i].LatP99Ms)
	}
}

func main() {
	var (
		profile   = flag.String("profile", "afceph", "community | afceph")
		backend   = flag.String("backend", "filestore", "object-store backend: filestore | directstore")
		rw        = flag.String("rw", "randwrite", "randwrite | randread | write | read")
		bs        = flag.Int64("bs", 4096, "block size in bytes")
		vms       = flag.Int("vms", 20, "number of VM clients")
		iodepth   = flag.Int("iodepth", 8, "outstanding requests per VM")
		imageGB   = flag.Int64("image-gb", 1, "image size per VM in GiB")
		runtime   = flag.Float64("runtime", 2.0, "measured seconds")
		ramp      = flag.Float64("ramp", 0.5, "warm-up seconds")
		nodes     = flag.Int("nodes", 4, "OSD nodes")
		pool      = flag.String("pool", "", "redundancy policy: repN | ecK+M (default: rep2)")
		sustained = flag.Bool("sustained", true, "worn (sustained) SSD state")
		prefill   = flag.Bool("prefill", false, "prefill images before measuring")
		seed      = flag.Uint64("seed", 1, "random seed")
		trace     = flag.Bool("trace", false, "print the write-path stage breakdown (Figure 3 style)")
		traceOut  = flag.String("trace-out", "", "write the per-segment latency breakdown as CSV to this file (implies tracing)")
		perfDump  = flag.Bool("perf-dump", false, "print the cluster perf-counter registry as JSON after the run (Ceph `perf dump` style)")
		sweep     = flag.Bool("sweep", false, "sweep iodepths and report the best point (the paper's methodology)")
		maxLat    = flag.Float64("max-lat", 0, "with -sweep: discard points above this mean latency (ms)")

		scenFile    = flag.String("scenario", "", "run a declarative multi-tenant scenario file instead of a fio workload")
		scenScale   = flag.Float64("scenario-scale", 1.0, "with -scenario: multiply every scenario duration")
		noAdmission = flag.Bool("no-admission", false, "with -scenario: force admission control off (comparison arm)")

		scrubMs     = flag.Float64("scrub-ms", 0, "background scrub round interval in ms (0 = scrub off)")
		scrubMBps   = flag.Float64("scrub-mbps", 128, "deep-scrub read bandwidth budget in MB/s (0 = unthrottled)")
		scrubPGs    = flag.Int("scrub-pgs", 1, "max concurrently scrubbed PGs")
		scrubRepair = flag.Bool("scrub-repair", true, "auto-repair what the scrub finds")

		failAt    = flag.Float64("fail-at", 0, "crash an OSD this many ms into the run (0 = no fault injection)")
		recoverAt = flag.Float64("recover-at", 0, "restart + recover the crashed OSD this many ms into the run")
		failOSD   = flag.Int("fail-osd", 0, "OSD id to crash with -fail-at")

		noPending  = flag.Bool("no-pending-queue", false, "ablate: disable pending queue")
		noCompW    = flag.Bool("no-completion-worker", false, "ablate: disable completion worker")
		noFastAck  = flag.Bool("no-fast-ack", false, "ablate: disable fast ack")
		noThrottle = flag.Bool("no-throttle-tuning", false, "ablate: keep HDD throttles")
		noAsyncLog = flag.Bool("no-async-log", false, "ablate: keep sync logging")
		noLightTx  = flag.Bool("no-light-tx", false, "ablate: keep heavy transactions")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stopProf := prof.Start(*cpuProf, *memProf)
	defer stopProf()

	if *scenFile != "" {
		data, err := os.ReadFile(*scenFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "afsim:", err)
			os.Exit(1)
		}
		sc, err := scenario.Parse(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "afsim:", err)
			os.Exit(1)
		}
		res, err := scenario.Run(sc, scenario.Options{
			Scale:            *scenScale,
			DisableAdmission: *noAdmission,
			Perf:             *perfDump,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "afsim:", err)
			os.Exit(1)
		}
		fmt.Print(res.Table())
		if *perfDump {
			fmt.Println(res.PerfJSON)
		}
		return
	}

	cfg := afceph.DefaultConfig()
	cfg.Nodes = *nodes
	cfg.Pool = *pool
	cfg.Sustained = *sustained
	cfg.Seed = *seed
	if *trace || *traceOut != "" {
		cfg.TraceSample = 10
	}
	tuning, err := osd.ProfileByName(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afsim:", err)
		os.Exit(2)
	}
	cfg.Tuning = tuning
	cfg.Backend = *backend
	if *noPending {
		cfg.Tuning.PendingQueue = false
	}
	if *noCompW {
		cfg.Tuning.CompletionWorker = false
	}
	if *noFastAck {
		cfg.Tuning.FastAck = false
	}
	if *noThrottle {
		cfg.Tuning.ThrottleSSD = false
	}
	if *noAsyncLog {
		cfg.Tuning.AsyncLog = false
	}
	if *noLightTx {
		cfg.Tuning.LightTx = false
	}
	if *scrubMs > 0 {
		if *sweep {
			fmt.Fprintln(os.Stderr, "afsim: -scrub-ms cannot be combined with -sweep")
			os.Exit(2)
		}
		cfg.ScrubIntervalMs = *scrubMs
		cfg.ScrubBudgetMBps = *scrubMBps
		cfg.ScrubPGs = *scrubPGs
		cfg.ScrubAutoRepair = *scrubRepair
	}

	chaos := *failAt > 0
	if chaos {
		total := (*ramp + *runtime) * 1000
		if *sweep {
			fmt.Fprintln(os.Stderr, "afsim: -fail-at cannot be combined with -sweep")
			os.Exit(2)
		}
		if *recoverAt <= *failAt || *recoverAt >= total {
			fmt.Fprintf(os.Stderr, "afsim: need fail-at < recover-at < %0.f (ramp+runtime in ms)\n", total)
			os.Exit(2)
		}
		if *failOSD < 0 || *failOSD >= cfg.Nodes*cfg.OSDsPerNode {
			fmt.Fprintf(os.Stderr, "afsim: -fail-osd %d out of range\n", *failOSD)
			os.Exit(2)
		}
		// Fault injection needs the robustness layer: client op timeouts so
		// the workload rides through the crash, heartbeats so the dead OSD
		// is detected without an operator.
		cfg.OpTimeoutMs = 50
		cfg.HeartbeatMs = 25
		cfg.HeartbeatGraceMs = 100
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "afsim:", err)
		os.Exit(2)
	}

	if *sweep {
		if *perfDump || *traceOut != "" {
			fmt.Fprintln(os.Stderr, "afsim: -perf-dump/-trace-out need a single run, not -sweep")
			os.Exit(2)
		}
		runSweep(cfg, *rw, *bs, *vms, *imageGB<<30, *runtime, *ramp, *maxLat)
		return
	}

	c := afceph.New(cfg)
	var rec cluster.RecoveryStats
	var replays int
	if chaos {
		inner := c.Internal()
		inner.K.Go("fault", func(p *sim.Proc) {
			p.Sleep(sim.Time(*failAt * 1e6))
			inner.OSDs()[*failOSD].Crash() // silent: heartbeats must detect it
			p.Sleep(sim.Time((*recoverAt - *failAt) * 1e6))
			replays = inner.RestartOSDIn(p, *failOSD)
			rec = inner.RecoverOSDIn(p, *failOSD)
		})
	}
	res, err := c.RunFio(afceph.FioSpec{
		Workload:   *rw,
		BlockSize:  *bs,
		VMs:        *vms,
		IODepth:    *iodepth,
		ImageSize:  *imageGB << 30,
		RuntimeSec: *runtime,
		RampSec:    *ramp,
		Prefill:    *prefill,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "afsim:", err)
		os.Exit(1)
	}

	fmt.Printf("profile=%s rw=%s bs=%d vms=%d iodepth=%d sustained=%v\n",
		*profile, *rw, *bs, *vms, *iodepth, *sustained)
	fmt.Println(res)
	st := c.Stats()
	fmt.Printf("pg-lock: wait=%.1fms contended=%d\n", st.PGLockWaitMs, st.PGLockContended)
	fmt.Printf("journal full stalls: %d\n", st.JournalFullStalls)
	fmt.Printf("osd ops: writes=%d reads=%d\n", st.OSDWriteOps, st.OSDReadOps)
	fmt.Print("cpu util:")
	for i, u := range st.CPUUtil {
		fmt.Printf(" node%d=%.2f", i, u)
	}
	fmt.Println()
	if *trace {
		fmt.Print(c.TraceReport())
		fmt.Println("per-segment latency breakdown (telescoping; deltas sum to end-to-end)")
		fmt.Print(c.BreakdownTable())
	}
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, []byte(c.BreakdownCSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "afsim:", err)
			os.Exit(1)
		}
	}
	if *perfDump {
		fmt.Println(c.PerfDump())
	}
	if *scrubMs > 0 {
		// Stop before any Forever drain: a live scrub loop never idles.
		c.StopScrub()
	}
	if chaos {
		// Drain: let the recovery and outstanding applies finish past the
		// measured window, then converge any divergence recovery left while
		// racing the workload.
		inner := c.Internal()
		inner.K.Go("settle", func(p *sim.Proc) {
			p.Sleep(2 * sim.Second)
			inner.StopHeartbeats()
		})
		inner.K.Run(sim.Forever)
		healed := inner.Repair()

		fmt.Printf("\nfault injection: crashed osd.%d at %.0fms, recovered at %.0fms\n",
			*failOSD, *failAt, *recoverAt)
		fmt.Printf("  heartbeat downs detected: %d\n", c.DownsDetected())
		fmt.Printf("  journal replays on restart: %d\n", replays)
		fmt.Printf("  recovery: %d PGs (%d log-based, %d backfill, %d degraded), %d objects / %.1f MB in %.1fms\n",
			rec.PGsRecovered, rec.LogRecoveries, rec.Backfills, rec.DegradedPGs,
			rec.ObjectsCopied, float64(rec.BytesCopied)/(1<<20), float64(rec.Duration)/1e6)
		pre := meanIOPS(res, *ramp*1000, *failAt) // ramp samples count no ops
		during := meanIOPS(res, *failAt, *recoverAt)
		post := meanIOPS(res, *recoverAt, (*ramp+*runtime)*1000)
		fmt.Printf("  iops: before=%.0f degraded=%.0f after=%.0f\n", pre, during, post)
		if healed > 0 {
			fmt.Printf("  repair healed %d copies diverged by recovery racing the workload\n", healed)
		}
		if f := c.Scrub(); len(f) != 0 {
			fmt.Printf("  SCRUB DIRTY after repair (%d findings), first: %s\n", len(f), f[0])
			os.Exit(1)
		}
		fmt.Println("  final scrub: clean (no acked write lost)")
	}
	if *scrubMs > 0 {
		if !chaos {
			c.Internal().K.Run(sim.Forever) // drain the in-flight scrub round
		}
		st := c.ScrubStats()
		fmt.Printf("background scrub: rounds=%d pgs=%d objects=%d deep-reads=%d read=%.1fMB yields=%d findings=%d repairs=%d deferred=%d\n",
			st.Rounds, st.PGsScrubbed, st.ObjectsScrubbed, st.DeepReads,
			float64(st.BytesRead)/(1<<20), st.Yields, st.Findings, st.Repairs, st.Deferred)
	}
}

// meanIOPS averages the run's IOPS samples covering (fromMs, toMs]. Each
// sample is stamped at the end of the interval it counts, so the sample at
// fromMs covers the interval before the window and the one at toMs the
// interval that closes it.
func meanIOPS(res afceph.FioResult, fromMs, toMs float64) float64 {
	sum, n := 0.0, 0
	for i, ts := range res.SeriesT {
		ms := ts * 1000
		if ms > fromMs && ms <= toMs {
			sum += res.SeriesIOPS[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
