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
	"errors"
	"flag"
	"fmt"
	"io"
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
func runSweep(stdout io.Writer, cfg afceph.Config, rw string, bs int64, vms int, imageSize int64, runtime, ramp, maxLat float64) error {
	depths := []int{1, 2, 4, 8, 16, 32}
	fmt.Fprintf(stdout, "%-8s %10s %10s %10s\n", "iodepth", "iops", "lat(ms)", "p99(ms)")
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
			return err
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
		fmt.Fprintf(stdout, "%s%-7d %10.0f %10.2f %10.2f\n", mark, d, results[i].IOPS, results[i].LatMeanMs, results[i].LatP99Ms)
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is afsim with its arguments and output streams as parameters; it
// returns the exit status: 0 on success, 1 when a run fails, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("afsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		profile   = fs.String("profile", "afceph", "community | afceph")
		backend   = fs.String("backend", "filestore", "object-store backend: filestore | directstore")
		rw        = fs.String("rw", "randwrite", "randwrite | randread | write | read")
		bs        = fs.Int64("bs", 4096, "block size in bytes")
		vms       = fs.Int("vms", 20, "number of VM clients")
		iodepth   = fs.Int("iodepth", 8, "outstanding requests per VM")
		imageGB   = fs.Int64("image-gb", 1, "image size per VM in GiB")
		runtime   = fs.Float64("runtime", 2.0, "measured seconds")
		ramp      = fs.Float64("ramp", 0.5, "warm-up seconds")
		nodes     = fs.Int("nodes", 4, "OSD nodes")
		pool      = fs.String("pool", "", "redundancy policy: repN | ecK+M (default: rep2)")
		sustained = fs.Bool("sustained", true, "worn (sustained) SSD state")
		prefill   = fs.Bool("prefill", false, "prefill images before measuring")
		seed      = fs.Uint64("seed", 1, "random seed")
		trace     = fs.Bool("trace", false, "print the write-path stage breakdown (Figure 3 style)")
		traceOut  = fs.String("trace-out", "", "write the per-segment latency breakdown as CSV to this file (implies tracing)")
		perfDump  = fs.Bool("perf-dump", false, "print the cluster perf-counter registry as JSON after the run (Ceph `perf dump` style)")
		sweep     = fs.Bool("sweep", false, "sweep iodepths and report the best point (the paper's methodology)")
		maxLat    = fs.Float64("max-lat", 0, "with -sweep: discard points above this mean latency (ms)")

		scenFile    = fs.String("scenario", "", "run a declarative multi-tenant scenario file instead of a fio workload")
		scenScale   = fs.Float64("scenario-scale", 1.0, "with -scenario: multiply every scenario duration")
		noAdmission = fs.Bool("no-admission", false, "with -scenario: force admission control off (comparison arm)")

		scrubMs     = fs.Float64("scrub-ms", 0, "background scrub round interval in ms (0 = scrub off)")
		scrubMBps   = fs.Float64("scrub-mbps", 128, "deep-scrub read bandwidth budget in MB/s (0 = unthrottled)")
		scrubPGs    = fs.Int("scrub-pgs", 1, "max concurrently scrubbed PGs")
		scrubRepair = fs.Bool("scrub-repair", true, "auto-repair what the scrub finds")

		failAt    = fs.Float64("fail-at", 0, "crash an OSD this many ms into the run (0 = no fault injection)")
		recoverAt = fs.Float64("recover-at", 0, "restart + recover the crashed OSD this many ms into the run")
		failOSD   = fs.Int("fail-osd", 0, "OSD id to crash with -fail-at")

		noPending  = fs.Bool("no-pending-queue", false, "ablate: disable pending queue")
		noCompW    = fs.Bool("no-completion-worker", false, "ablate: disable completion worker")
		noFastAck  = fs.Bool("no-fast-ack", false, "ablate: disable fast ack")
		noThrottle = fs.Bool("no-throttle-tuning", false, "ablate: keep HDD throttles")
		noAsyncLog = fs.Bool("no-async-log", false, "ablate: keep sync logging")
		noLightTx  = fs.Bool("no-light-tx", false, "ablate: keep heavy transactions")

		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stopProf := prof.Start(*cpuProf, *memProf)
	defer stopProf()

	if *scenFile != "" {
		data, err := os.ReadFile(*scenFile)
		if err != nil {
			fmt.Fprintln(stderr, "afsim:", err)
			return 1
		}
		sc, err := scenario.Parse(data)
		if err != nil {
			fmt.Fprintln(stderr, "afsim:", err)
			return 1
		}
		res, err := scenario.Run(sc, scenario.Options{
			Scale:            *scenScale,
			DisableAdmission: *noAdmission,
			Perf:             *perfDump,
		})
		if err != nil {
			fmt.Fprintln(stderr, "afsim:", err)
			return 1
		}
		fmt.Fprint(stdout, res.Table())
		if *perfDump {
			fmt.Fprintln(stdout, res.PerfJSON)
		}
		return 0
	}

	// Each of these would otherwise be replaced by a default or ignored.
	for _, bad := range []struct {
		is  bool
		msg string
	}{
		{*runtime <= 0, "-runtime must be positive"},
		{*ramp < 0, "-ramp must not be negative"},
		{*imageGB < 1, "-image-gb must be at least 1"},
		{*failAt < 0, "-fail-at must not be negative"},
		{*recoverAt != 0 && *failAt == 0, "-recover-at needs -fail-at"},
		{*scrubMs < 0, "-scrub-ms must not be negative"},
		{*scrubMBps < 0, "-scrub-mbps must not be negative"},
		{*scrubPGs < 1, "-scrub-pgs must be at least 1"},
	} {
		if bad.is {
			fmt.Fprintln(stderr, "afsim:", bad.msg)
			return 2
		}
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
		fmt.Fprintln(stderr, "afsim:", err)
		return 2
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
			fmt.Fprintln(stderr, "afsim: -scrub-ms cannot be combined with -sweep")
			return 2
		}
		cfg.Scrub = afceph.ScrubParams{
			Interval:         sim.Time(*scrubMs * 1e6),
			BytesPerSec:      int64(*scrubMBps * (1 << 20)),
			MaxConcurrentPGs: *scrubPGs,
			AutoRepair:       *scrubRepair,
			SettleDelay:      2 * sim.Millisecond,
		}
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, "afsim:", err)
		return 2
	}

	chaos := *failAt > 0
	if chaos {
		total := (*ramp + *runtime) * 1000
		if *sweep {
			fmt.Fprintln(stderr, "afsim: -fail-at cannot be combined with -sweep")
			return 2
		}
		if *recoverAt <= *failAt || *recoverAt >= total {
			fmt.Fprintf(stderr, "afsim: need fail-at < recover-at < %0.f (ramp+runtime in ms)\n", total)
			return 2
		}
		if *failOSD < 0 || *failOSD >= cfg.Nodes*cfg.OSDsPerNode {
			fmt.Fprintf(stderr, "afsim: -fail-osd %d out of range\n", *failOSD)
			return 2
		}
		// Fault injection needs the robustness layer: client op timeouts so
		// the workload rides through the crash, heartbeats so the dead OSD
		// is detected without an operator.
		cfg.OpTimeoutMs = 50
		cfg.HeartbeatMs = 25
		cfg.HeartbeatGraceMs = 100
	}

	if *sweep {
		if *perfDump || *traceOut != "" {
			fmt.Fprintln(stderr, "afsim: -perf-dump/-trace-out need a single run, not -sweep")
			return 2
		}
		if err := runSweep(stdout, cfg, *rw, *bs, *vms, *imageGB<<30, *runtime, *ramp, *maxLat); err != nil {
			fmt.Fprintln(stderr, "afsim:", err)
			return 1
		}
		return 0
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
		fmt.Fprintln(stderr, "afsim:", err)
		return 1
	}

	fmt.Fprintf(stdout, "profile=%s rw=%s bs=%d vms=%d iodepth=%d sustained=%v\n",
		*profile, *rw, *bs, *vms, *iodepth, *sustained)
	fmt.Fprintln(stdout, res)
	st := c.Stats()
	fmt.Fprintf(stdout, "pg-lock: wait=%.1fms contended=%d\n", st.PGLockWaitMs, st.PGLockContended)
	fmt.Fprintf(stdout, "journal full stalls: %d\n", st.JournalFullStalls)
	fmt.Fprintf(stdout, "osd ops: writes=%d reads=%d\n", st.OSDWriteOps, st.OSDReadOps)
	fmt.Fprint(stdout, "cpu util:")
	for i, u := range st.CPUUtil {
		fmt.Fprintf(stdout, " node%d=%.2f", i, u)
	}
	fmt.Fprintln(stdout)
	if *trace {
		fmt.Fprint(stdout, c.TraceReport())
		fmt.Fprintln(stdout, "per-segment latency breakdown (telescoping; deltas sum to end-to-end)")
		fmt.Fprint(stdout, c.BreakdownTable())
	}
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, []byte(c.BreakdownCSV()), 0o644); err != nil {
			fmt.Fprintln(stderr, "afsim:", err)
			return 1
		}
	}
	if *perfDump {
		fmt.Fprintln(stdout, c.PerfDump())
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

		fmt.Fprintf(stdout, "\nfault injection: crashed osd.%d at %.0fms, recovered at %.0fms\n",
			*failOSD, *failAt, *recoverAt)
		fmt.Fprintf(stdout, "  heartbeat downs detected: %d\n", c.DownsDetected())
		fmt.Fprintf(stdout, "  journal replays on restart: %d\n", replays)
		fmt.Fprintf(stdout, "  recovery: %d PGs (%d log-based, %d backfill, %d degraded), %d objects / %.1f MB in %.1fms\n",
			rec.PGsRecovered, rec.LogRecoveries, rec.Backfills, rec.DegradedPGs,
			rec.ObjectsCopied, float64(rec.BytesCopied)/(1<<20), float64(rec.Duration)/1e6)
		pre := meanIOPS(res, *ramp*1000, *failAt) // ramp samples count no ops
		during := meanIOPS(res, *failAt, *recoverAt)
		post := meanIOPS(res, *recoverAt, (*ramp+*runtime)*1000)
		fmt.Fprintf(stdout, "  iops: before=%.0f degraded=%.0f after=%.0f\n", pre, during, post)
		if healed > 0 {
			fmt.Fprintf(stdout, "  repair healed %d copies diverged by recovery racing the workload\n", healed)
		}
		if f := c.Scrub(); len(f) != 0 {
			fmt.Fprintf(stdout, "  SCRUB DIRTY after repair (%d findings), first: %s\n", len(f), f[0])
			return 1
		}
		fmt.Fprintln(stdout, "  final scrub: clean (no acked write lost)")
	}
	if *scrubMs > 0 {
		if !chaos {
			c.Internal().K.Run(sim.Forever) // drain the in-flight scrub round
		}
		st := c.ScrubStats()
		fmt.Fprintf(stdout, "background scrub: rounds=%d pgs=%d objects=%d deep-reads=%d read=%.1fMB yields=%d findings=%d repairs=%d deferred=%d\n",
			st.Rounds, st.PGsScrubbed, st.ObjectsScrubbed, st.DeepReads,
			float64(st.BytesRead)/(1<<20), st.Yields, st.Findings, st.Repairs, st.Deferred)
	}
	return 0
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
