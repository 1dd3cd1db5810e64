package repro

// Figure benchmarks: each Benchmark regenerates one figure/table of the
// paper's evaluation at a bench-friendly scale and reports the headline
// numbers as custom metrics. Run the full-size reproductions with
// cmd/afbench. Microbenchmarks for the substrates follow at the bottom.

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/cpumodel"
	"repro/internal/crush"
	"repro/internal/device"
	"repro/internal/figures"
	"repro/internal/filestore"
	"repro/internal/journal"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/osd"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchOptions returns sizing small enough for `go test -bench=.`.
func benchOptions() figures.Options {
	return figures.Options{Scale: 0.08, RuntimeSec: 2.0, RampSec: 0.6, JournalMB: 64, Seed: 1}
}

// simWorkStart resets the figures package's simulated-work accumulator and
// returns the wall-clock start for reportSimWork.
func simWorkStart() time.Time {
	figures.TakeSimWork()
	return time.Now()
}

// reportSimWork reports the simulated work the benchmark did: sim-events
// and proc-resumes per op (kernel events dispatched and process resumes,
// both simulator outputs that the gate holds exactly), and how many
// simulated nanoseconds it produced per wall nanosecond (sim-wall-x, the
// simulator's time-compression ratio).
func reportSimWork(b *testing.B, start time.Time) {
	wall := time.Since(start).Nanoseconds()
	w := figures.TakeSimWork()
	if wall > 0 && w.Nanos > 0 {
		b.ReportMetric(float64(w.Nanos)/float64(wall), "sim-wall-x")
	}
	b.ReportMetric(float64(w.Events)/float64(b.N), "sim-events")
	b.ReportMetric(float64(w.Resumes)/float64(b.N), "proc-resumes")
}

// cell parses a numeric table cell.
func cell(rep figures.Report, row, col int) float64 {
	v, err := strconv.ParseFloat(rep.Rows[row][col], 64)
	if err != nil {
		panic(fmt.Sprintf("bad cell %d,%d in %s: %v", row, col, rep.Title, err))
	}
	return v
}

// cellByRowName parses a numeric cell in the row whose first column is name.
func cellByRowName(rep figures.Report, name string, col int) float64 {
	for i, row := range rep.Rows {
		if row[0] == name {
			return cell(rep, i, col)
		}
	}
	panic(fmt.Sprintf("no row %q in %s", name, rep.Title))
}

// cellByRowPair parses a numeric cell in the row keyed by its first two
// columns (figures whose rows are scenario x tenant).
func cellByRowPair(rep figures.Report, c0, c1 string, col int) float64 {
	for i, row := range rep.Rows {
		if row[0] == c0 && row[1] == c1 {
			return cell(rep, i, col)
		}
	}
	panic(fmt.Sprintf("no row %q/%q in %s", c0, c1, rep.Title))
}

func BenchmarkFig1_ThreadSweep(b *testing.B) {
	start := simWorkStart()
	for i := 0; i < b.N; i++ {
		rep := figures.Fig1(benchOptions())
		last := len(rep.Rows) - 1
		b.ReportMetric(cell(rep, last, 1), "write-iops@max-threads")
		b.ReportMetric(cell(rep, last, 2), "write-lat-ms@max-threads")
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
	reportSimWork(b, start)
}

func BenchmarkFig3_StageBreakdown(b *testing.B) {
	start := simWorkStart()
	for i := 0; i < b.N; i++ {
		rep := figures.Fig3(benchOptions())
		b.ReportMetric(cellByRowName(rep, "acked", 1), "total-ms")
		b.ReportMetric(cellByRowName(rep, "local-commit", 2), "completion-delta-ms")
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
	reportSimWork(b, start)
}

func BenchmarkFig4_LogVsNoLog(b *testing.B) {
	start := simWorkStart()
	for i := 0; i < b.N; i++ {
		rep := figures.Fig4(benchOptions())
		b.ReportMetric(cell(rep, 0, 2), "log-late-iops")
		b.ReportMetric(cell(rep, 1, 2), "nolog-late-iops")
		b.ReportMetric(cell(rep, 1, 3), "nolog-late-cv")
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
	reportSimWork(b, start)
}

func BenchmarkFig9_Stepwise(b *testing.B) {
	start := simWorkStart()
	for i := 0; i < b.N; i++ {
		rep := figures.Fig9(benchOptions())
		last := len(rep.Rows) - 1
		b.ReportMetric(cell(rep, 0, 1), "community-iops")
		b.ReportMetric(cell(rep, last, 1), "optimized-iops")
		b.ReportMetric(cell(rep, last, 3), "speedup-x")
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
	reportSimWork(b, start)
}

// Fig10 panels run as sub-benchmarks so individual panels can be selected:
// go test -bench 'Fig10/4K-randwrite'.
func BenchmarkFig10_VMFleet(b *testing.B) {
	panels := []string{"4K-randwrite", "32K-randwrite", "4K-randread", "seq-write"}
	for _, panel := range panels {
		panel := panel
		b.Run(panel, func(b *testing.B) {
			start := simWorkStart()
			for i := 0; i < b.N; i++ {
				rep := figures.Fig10(benchOptions(), []int{40}, []string{panel})
				b.ReportMetric(cell(rep, 0, 2), "community-iops")
				b.ReportMetric(cell(rep, 0, 4), "afceph-iops")
				b.ReportMetric(cell(rep, 0, 6), "ratio-x")
				if i == 0 {
					b.Log("\n" + rep.String())
				}
			}
			reportSimWork(b, start)
		})
	}
}

func BenchmarkFig11_SolidFireComparison(b *testing.B) {
	start := simWorkStart()
	for i := 0; i < b.N; i++ {
		rep := figures.Fig11(benchOptions())
		b.ReportMetric(cell(rep, 0, 1), "sf-4k-randwrite-iops")
		b.ReportMetric(cell(rep, 0, 3), "afceph-4k-randwrite-iops")
		b.ReportMetric(cell(rep, 4, 8), "afceph-seqwrite-MBps")
		b.ReportMetric(cell(rep, 4, 7), "sf-seqwrite-MBps")
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
	reportSimWork(b, start)
}

func BenchmarkFig12_ScaleOut(b *testing.B) {
	start := simWorkStart()
	for i := 0; i < b.N; i++ {
		rep := figures.Fig12(benchOptions(), []int{4, 8})
		// rows: per workload x node-count; row1 is 8-node 4K-randwrite.
		b.ReportMetric(cell(rep, 1, 5), "randwrite-8node-scaling-x")
		b.ReportMetric(cell(rep, 3, 5), "randread-8node-scaling-x")
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
	reportSimWork(b, start)
}

// Ablation benchmarks: each single optimization applied alone to the
// community baseline, quantifying the design choices from DESIGN.md §5.
func BenchmarkAblation_SingleOptimizations(b *testing.B) {
	mods := []struct {
		name   string
		tuning osd.Tuning
	}{
		{"baseline", osd.Community()},
		{"pending-queue", osd.Tuning{PendingQueue: true}},
		{"completion-worker", osd.Tuning{CompletionWorker: true}},
		{"fast-ack", osd.Tuning{FastAck: true}},
		{"throttles", osd.Tuning{ThrottleSSD: true}},
		{"jemalloc", osd.Tuning{Jemalloc: true}},
		{"nodelay", osd.Tuning{NoDelay: true}},
		{"async-log", osd.Tuning{AsyncLog: true}},
		{"light-tx", osd.Tuning{LightTx: true}},
		{"no-batch-wakeup", osd.Tuning{NoBatchWakeup: true}},
	}
	for _, m := range mods {
		m := m
		b.Run(m.name, func(b *testing.B) {
			start := simWorkStart()
			for i := 0; i < b.N; i++ {
				rep := figures.LatencyVsLoadPoint(benchOptions(), m.tuning, 20)
				b.ReportMetric(rep.IOPS, "iops")
				b.ReportMetric(rep.Lat.Mean, "lat-ms")
			}
			reportSimWork(b, start)
		})
	}
}

// BenchmarkDropInReplacement quantifies the paper's motivation (§1):
// HDD -> SSD swap vs software optimization.
func BenchmarkDropInReplacement(b *testing.B) {
	start := simWorkStart()
	for i := 0; i < b.N; i++ {
		rep := figures.DropIn(benchOptions())
		b.ReportMetric(cell(rep, 0, 1), "community-hdd-iops")
		b.ReportMetric(cell(rep, 1, 1), "community-ssd-iops")
		b.ReportMetric(cell(rep, 2, 1), "afceph-ssd-iops")
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
	reportSimWork(b, start)
}

// BenchmarkMixedRW quantifies the §3.4 mixed read/write claim: AFCeph's
// advantage under a 70/30 random mix.
func BenchmarkMixedRW(b *testing.B) {
	start := simWorkStart()
	for i := 0; i < b.N; i++ {
		rep := figures.MixedRW(benchOptions(), []int{70})
		b.ReportMetric(cell(rep, 0, 1), "community-iops")
		b.ReportMetric(cell(rep, 0, 3), "afceph-iops")
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
	reportSimWork(b, start)
}

// BenchmarkBackends gates the direct-write backend against journal+filestore
// on the two workloads where the write paths differ most: 4K random writes
// (deferred KV WAL vs journal double-write) and the 70/30 mixed pattern.
// The directstore-journal-MB metric must stay exactly zero — the direct
// backend owns no journal ring.
func BenchmarkBackends(b *testing.B) {
	panels := []string{"4K-randwrite", "4K-randrw70"}
	for _, panel := range panels {
		panel := panel
		b.Run(panel, func(b *testing.B) {
			start := simWorkStart()
			for i := 0; i < b.N; i++ {
				rep := figures.Backends(benchOptions(), []string{panel})
				// row 0 = filestore, row 1 = directstore.
				b.ReportMetric(cell(rep, 0, 2), "filestore-iops")
				b.ReportMetric(cell(rep, 1, 2), "directstore-iops")
				b.ReportMetric(cell(rep, 0, 6), "filestore-amp")
				b.ReportMetric(cell(rep, 1, 6), "directstore-amp")
				b.ReportMetric(cell(rep, 1, 4), "directstore-journal-MB")
				if i == 0 {
					b.Log("\n" + rep.String())
				}
			}
			reportSimWork(b, start)
		})
	}
}

// BenchmarkScrub gates the self-healing layer: the client p99 cost of
// running the background scrub (off vs throttled vs unthrottled) and the
// detection coverage for bit-rot injected on cold replicas. The off-row
// detected metric must stay exactly zero — cold rot is invisible without
// scrub — and both scrub rows must detect every injected copy.
func BenchmarkScrub(b *testing.B) {
	start := simWorkStart()
	for i := 0; i < b.N; i++ {
		rep := figures.Scrub(benchOptions())
		b.ReportMetric(cellByRowName(rep, "off", 3), "off-p99-ms")
		b.ReportMetric(cellByRowName(rep, "throttled", 3), "throttled-p99-ms")
		b.ReportMetric(cellByRowName(rep, "unthrottled", 3), "unthrottled-p99-ms")
		b.ReportMetric(cellByRowName(rep, "off", 9), "off-detected")
		b.ReportMetric(cellByRowName(rep, "throttled", 9), "throttled-detected")
		b.ReportMetric(cellByRowName(rep, "unthrottled", 9), "unthrottled-detected")
		b.ReportMetric(cellByRowName(rep, "unthrottled", 10), "unthrottled-ttd-ms")
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
	reportSimWork(b, start)
}

// BenchmarkScenarios gates the multi-tenant scenario engine: the
// noisy-neighbor steady tenant's p99 with admission control off vs on, the
// rejected-op count that buys the improvement, and the Jain fairness index
// both ways. The off-row rejected metric must stay exactly zero — with
// admission disabled nothing may be refused — and the on-row p99 must stay
// below the off-row p99 (authored as a min floor on the headline ratio).
func BenchmarkScenarios(b *testing.B) {
	start := simWorkStart()
	for i := 0; i < b.N; i++ {
		rep := figures.Scenarios(benchOptions())
		offP99 := cellByRowPair(rep, "noisy-adm-off", "steady-gold", 8)
		onP99 := cellByRowPair(rep, "noisy-adm-on", "steady-gold", 8)
		b.ReportMetric(offP99, "noisy-off-steady-p99-ms")
		b.ReportMetric(onP99, "noisy-on-steady-p99-ms")
		b.ReportMetric(offP99/onP99, "noisy-p99-protection-x")
		b.ReportMetric(cellByRowPair(rep, "noisy-adm-off", "TOTAL", 5), "noisy-off-rejected")
		b.ReportMetric(cellByRowPair(rep, "noisy-adm-on", "TOTAL", 5), "noisy-on-rejected")
		b.ReportMetric(cellByRowPair(rep, "noisy-adm-off", "TOTAL", 9), "noisy-off-fairness")
		b.ReportMetric(cellByRowPair(rep, "noisy-adm-on", "TOTAL", 9), "noisy-on-fairness")
		b.ReportMetric(cellByRowPair(rep, "failover", "TOTAL", 4), "failover-accepted")
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
	reportSimWork(b, start)
}

// BenchmarkECvsRep gates the redundancy-policy seam: 4K random-write
// throughput, host write amplification and CPU cost per kop for 3x
// replication vs RS(4,2) erasure coding, plus read latency with one OSD
// failed out (replica reads fail over, EC reads reconstruct from k
// shards). The space-advantage metric is structural — RS(4,2) stores
// 1.5 bytes per logical byte against replication's 3.0 — and is floored
// just under 2x so a policy-accounting regression fails the gate.
func BenchmarkECvsRep(b *testing.B) {
	start := simWorkStart()
	for i := 0; i < b.N; i++ {
		rep := figures.ECvsRep(benchOptions())
		b.ReportMetric(cellByRowPair(rep, "rep3", "directstore", 2), "rep3-iops")
		b.ReportMetric(cellByRowPair(rep, "ec4+2", "directstore", 2), "ec-iops")
		b.ReportMetric(cellByRowPair(rep, "rep3", "directstore", 4), "rep3-amp")
		b.ReportMetric(cellByRowPair(rep, "ec4+2", "directstore", 4), "ec-amp")
		b.ReportMetric(cellByRowPair(rep, "rep3", "directstore", 6), "rep3-cpu-ms-kop")
		b.ReportMetric(cellByRowPair(rep, "ec4+2", "directstore", 6), "ec-cpu-ms-kop")
		b.ReportMetric(cellByRowPair(rep, "rep3", "directstore", 7), "rep3-deg-lat-ms")
		b.ReportMetric(cellByRowPair(rep, "ec4+2", "directstore", 7), "ec-deg-lat-ms")
		space := cellByRowPair(rep, "rep3", "directstore", 5) /
			cellByRowPair(rep, "ec4+2", "directstore", 5)
		b.ReportMetric(space, "space-advantage-x")
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
	reportSimWork(b, start)
}

// ---------------------------------------------------------------------------
// Substrate microbenchmarks.

func BenchmarkSimKernelEventThroughput(b *testing.B) {
	k := sim.NewKernel()
	k.Go("ticker", func(p *sim.Proc) {
		for {
			p.Sleep(sim.Microsecond)
		}
	})
	b.ResetTimer()
	k.Run(sim.Time(b.N) * sim.Microsecond)
}

// BenchmarkSimEventHeap measures timer events through the kernel's queue of
// future events at the depths runs keep queued. One op runs a fresh kernel
// for 50ms of simulated time. In depth-108 and depth-177 (the mean and the
// peak measured on Fig10/4K-randwrite) every event reschedules itself with
// a pseudo-random delay of up to 200us. failover keeps the shape of the
// afperf failover workload's queue, about 3,600 events deep: 100 such
// events and 3,500 op timeouts, each re-armed 50ms after it fires.
// sim-events per op is exact.
func BenchmarkSimEventHeap(b *testing.B) {
	shapes := []struct {
		name             string
		events, timeouts int
	}{
		{"depth-108", 108, 0},
		{"depth-177", 177, 0},
		{"failover", 100, 3500},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for n := 0; n < b.N; n++ {
				k := sim.NewKernel()
				x := uint64(88172645463325252)
				below := func(n sim.Time) sim.Time { // xorshift64: cheap next to a queue op
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					return sim.Time(x % uint64(n))
				}
				var tick, timeout func(any)
				tick = func(any) { k.AfterCall(1+below(200*sim.Microsecond), tick, nil) }
				timeout = func(any) { k.AfterCall(50*sim.Millisecond, timeout, nil) }
				for i := 0; i < sh.events; i++ {
					k.AfterCall(1+below(200*sim.Microsecond), tick, nil)
				}
				for i := 0; i < sh.timeouts; i++ {
					k.AfterCall(1+below(50*sim.Millisecond), timeout, nil)
				}
				k.Run(50 * sim.Millisecond)
				events += k.Dispatched()
				k.Close()
			}
			b.ReportMetric(float64(events)/float64(b.N), "sim-events")
		})
	}
}

func BenchmarkSimQueueHandoff(b *testing.B) {
	k := sim.NewKernel()
	q := sim.NewQueue[int](k, "q", 64)
	k.Go("producer", func(p *sim.Proc) {
		for i := 0; ; i++ {
			q.Push(p, i)
			p.Sleep(sim.Nanosecond) // advance virtual time per handoff
		}
	})
	k.Go("consumer", func(p *sim.Proc) {
		for {
			q.Pop(p)
		}
	})
	b.ResetTimer()
	k.Run(sim.Time(b.N)) // ~1 handoff per ns of virtual time
	k.Close()
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := stats.NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%1000) * 1000)
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := stats.NewHistogram()
	r := rng.New(1)
	for i := 0; i < 100000; i++ {
		h.Record(int64(r.Exp(1e6)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}

func BenchmarkCrushPGToOSDs(b *testing.B) {
	var hosts []crush.Host
	id := 0
	for h := 0; h < 16; h++ {
		host := crush.Host{Name: fmt.Sprintf("host%d", h)}
		for o := 0; o < 4; o++ {
			host.OSDs = append(host.OSDs, crush.OSDInfo{ID: id, Weight: 1})
			id++
		}
		hosts = append(hosts, host)
	}
	m, err := crush.NewMap(hosts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PGToOSDs(uint32(i), 2)
	}
}

func BenchmarkRngUint64(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

// BenchmarkKV_WriteAmp4K vs 4M reproduces the paper's §3.4 observation in
// miniature: same payload, radically different KV overhead by block size.
func BenchmarkKV_WriteAmp(b *testing.B) {
	for _, valSize := range []int{32, 4096} {
		valSize := valSize
		b.Run(fmt.Sprintf("val%d", valSize), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel()
				node := cpumodel.NewNode(k, "n", 8, cpumodel.JEMalloc)
				ssd := device.NewSSD(k, "ssd", device.DefaultSSDParams(), rng.New(1))
				db := kvstore.New(k, "db", ssd, node, kvstore.DefaultParams())
				k.Go("w", func(p *sim.Proc) {
					total := 256 << 10
					for j := 0; j < total/valSize; j++ {
						db.Apply(p, []kvstore.Op{{Key: fmt.Sprintf("key%06d", j), Value: make([]byte, valSize)}})
					}
				})
				k.Run(sim.Forever)
				wa := float64(db.Stats().WALBytes.Value()) / float64(db.Stats().UserBytes.Value())
				b.ReportMetric(wa, "wal-amp")
			}
		})
	}
}

// BenchmarkKVApply drives DB.Apply with the two batch shapes the OSD
// writes: filestore's light-weight transaction (a 180 B PG-log entry plus
// a 300 B omap overwrite) and directstore's small-write commit (a 4 KiB
// deferred-write WAL payload plus the PG-log entry). One op is 8192
// batches on a fresh store over the OSD's SSD, enough for directstore to
// flush and compact; sim-events and proc-resumes per op are exact.
func BenchmarkKVApply(b *testing.B) {
	const batches = 8192
	pglogKeys, omapKeys, dwalKeys := make([]string, batches), make([]string, 256), make([]string, batches)
	for i := range pglogKeys {
		pglogKeys[i] = fmt.Sprintf("pglog.%d.%d", i%64, i)
		dwalKeys[i] = fmt.Sprintf("dwal.%d", i)
	}
	for i := range omapKeys {
		omapKeys[i] = fmt.Sprintf("omap.obj%d.info", i)
	}
	pglog, omap, dwal := make([]byte, 180), make([]byte, 300), make([]byte, 4096)
	shapes := []struct {
		name  string
		batch func(ops []kvstore.Op, i int) []kvstore.Op
	}{
		{"filestore", func(ops []kvstore.Op, i int) []kvstore.Op {
			return append(ops, kvstore.Op{Key: pglogKeys[i], Value: pglog}, kvstore.Op{Key: omapKeys[i%len(omapKeys)], Value: omap})
		}},
		{"directstore", func(ops []kvstore.Op, i int) []kvstore.Op {
			return append(ops, kvstore.Op{Key: dwalKeys[i], Value: dwal}, kvstore.Op{Key: pglogKeys[i], Value: pglog})
		}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			var events, resumes uint64
			for n := 0; n < b.N; n++ {
				k := sim.NewKernel()
				node := cpumodel.NewNode(k, "n", 8, cpumodel.JEMalloc)
				ssd := device.NewSSD(k, "ssd", device.DefaultSSDParams(), rng.New(1))
				db := kvstore.New(k, "db", ssd, node, kvstore.DefaultParams())
				k.Go("w", func(p *sim.Proc) {
					var ops []kvstore.Op
					for i := 0; i < batches; i++ {
						ops = sh.batch(ops[:0], i)
						db.Apply(p, ops)
					}
				})
				k.Run(sim.Forever)
				events += k.Dispatched()
				resumes += k.Resumes()
				k.Close()
			}
			b.ReportMetric(float64(events)/float64(b.N), "sim-events")
			b.ReportMetric(float64(resumes)/float64(b.N), "proc-resumes")
		})
	}
}

// BenchmarkFileStoreApply drives FileStore.Apply with the OSD's 4 KiB
// write transaction (a 180 B PG-log entry, a 300 B omap overwrite and the
// data write) under both transaction profiles: light (batched KV ops,
// minimized syscalls, write-through metadata cache) and community (one KV
// write per op and a metadata read on most writes). One op is 4096 applies
// from four appliers on a fresh filestore over the OSD's SSD; sim-events
// and proc-resumes per op are exact.
func BenchmarkFileStoreApply(b *testing.B) {
	const applies, appliers = 4096, 4
	pglogKeys, oids := make([]string, applies), make([]string, 256)
	for i := range pglogKeys {
		pglogKeys[i] = fmt.Sprintf("pglog.%d.%d", i%64, i)
	}
	for i := range oids {
		oids[i] = fmt.Sprintf("obj%d", i)
	}
	pglog, omap := make([]byte, 180), make([]byte, 300)
	profiles := []struct {
		name string
		cfg  filestore.Config
	}{
		{"light", filestore.LightConfig()},
		{"community", filestore.CommunityConfig()},
	}
	for _, pr := range profiles {
		b.Run(pr.name, func(b *testing.B) {
			b.ReportAllocs()
			var events, resumes uint64
			for n := 0; n < b.N; n++ {
				k := sim.NewKernel()
				node := cpumodel.NewNode(k, "n", 8, cpumodel.JEMalloc)
				r := rng.New(1)
				ssd := device.NewSSD(k, "ssd", device.DefaultSSDParams(), r)
				db := kvstore.New(k, "db", ssd, node, kvstore.DefaultParams())
				fs := filestore.New(k, "fs", ssd, db, node, pr.cfg, r)
				for a := 0; a < appliers; a++ {
					a := a
					k.Go("applier", func(p *sim.Proc) {
						tx := &filestore.Transaction{Len: 4096, PGLogValue: pglog, OmapOps: make([]kvstore.Op, 1)}
						for i := a; i < applies; i += appliers {
							tx.OID = oids[i%len(oids)]
							tx.Off = int64(i%1024) * 4096
							tx.PGLogKey = pglogKeys[i]
							tx.OmapOps[0] = kvstore.Op{Key: tx.OID + ".info", Value: omap}
							fs.Apply(p, tx)
						}
					})
				}
				k.Run(sim.Forever)
				events += k.Dispatched()
				resumes += k.Resumes()
				k.Close()
			}
			b.ReportMetric(float64(events)/float64(b.N), "sim-events")
			b.ReportMetric(float64(resumes)/float64(b.N), "proc-resumes")
		})
	}
}

// BenchmarkJournalSubmit drives Journal.Submit with the OSD's 4 KiB entry
// (payload plus journal header) on the NVRAM device. One op is 8192
// submits on a fresh journal. In "free" the submitter trims each entry at
// once; in "full" the ring holds eight entries and a trimmer releases
// each one 20us after it lands, so most submits wait for ring space.
// sim-events and proc-resumes per op are exact.
func BenchmarkJournalSubmit(b *testing.B) {
	const submits = 8192
	entry := int64(4096 + osd.JournalHeaderBytes)
	shapes := []struct {
		name string
		full bool
	}{
		{"free", false},
		{"full", true},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			var events, resumes uint64
			for n := 0; n < b.N; n++ {
				k := sim.NewKernel()
				nvram := device.NewNVRAM(k, "nvram", device.DefaultNVRAMParams())
				size := int64(64 << 20)
				if sh.full {
					size = 8 * journal.BlockSize * ((entry + journal.BlockSize - 1) / journal.BlockSize)
				}
				j := journal.New(k, "journal", nvram, size)
				landed := sim.NewQueue[int64](k, "landed", 0)
				k.Go("submitter", func(p *sim.Proc) {
					for i := 0; i < submits; i++ {
						padded := j.Submit(p, entry)
						if !sh.full {
							j.Trim(padded)
							continue
						}
						landed.Push(p, padded)
					}
					landed.Close()
				})
				if sh.full {
					k.Go("trimmer", func(p *sim.Proc) {
						for {
							padded, ok := landed.Pop(p)
							if !ok {
								return
							}
							p.Sleep(20 * sim.Microsecond)
							j.Trim(padded)
						}
					})
				}
				k.Run(sim.Forever)
				events += k.Dispatched()
				resumes += k.Resumes()
				k.Close()
			}
			b.ReportMetric(float64(events)/float64(b.N), "sim-events")
			b.ReportMetric(float64(resumes)/float64(b.N), "proc-resumes")
		})
	}
}

// BenchmarkSSDSubmit drives SSD.Submit with 4 KiB random requests at
// queue depth 8, each request resubmitted by its own Done. One op is 8192
// requests on a fresh sustained-state SSD; sim-events and proc-resumes per
// op are exact.
func BenchmarkSSDSubmit(b *testing.B) {
	const requests, depth = 8192, 8
	for _, write := range []bool{true, false} {
		name := "randread"
		if write {
			name = "randwrite"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var events, resumes uint64
			for n := 0; n < b.N; n++ {
				k := sim.NewKernel()
				d := device.NewSSD(k, "ssd", device.DefaultSSDParams(), rng.New(1))
				d.SetSustained(true)
				r := rng.New(2)
				submitted := 0
				submit := func(io *device.IO) {
					submitted++
					io.Off, io.Size, io.Write = r.Int63n(1<<36)&^4095, 4096, write
					d.Submit(io)
				}
				resubmit := func(a any) {
					if submitted < requests {
						submit(a.(*device.IO))
					}
				}
				for i := 0; i < depth; i++ {
					io := &device.IO{Done: resubmit}
					io.Arg = io
					submit(io)
				}
				k.Run(sim.Forever)
				events += k.Dispatched()
				resumes += k.Resumes()
				k.Close()
			}
			b.ReportMetric(float64(events)/float64(b.N), "sim-events")
			b.ReportMetric(float64(resumes)/float64(b.N), "proc-resumes")
		})
	}
}

// BenchmarkNetsimSend sends one 4 KiB message at a time from one endpoint
// to another, from Send to the receiver, paced 50us apart so the
// connection never queues. One op is 8192 messages on a fresh network;
// sim-events and proc-resumes per op are exact.
func BenchmarkNetsimSend(b *testing.B) {
	const messages = 8192
	b.ReportAllocs()
	var events, resumes uint64
	for n := 0; n < b.N; n++ {
		k := sim.NewKernel()
		net := netsim.New(k, netsim.DefaultParams())
		node := cpumodel.NewNode(k, "node", 16, cpumodel.JEMalloc)
		src := net.NewEndpoint("src", node, true)
		dst := net.NewEndpoint("dst", node, true)
		received := 0
		dst.SetReceiver(func(*netsim.Message) { received++ })
		sent := 0
		var send func(any)
		send = func(any) {
			src.Send(nil, dst, 4096, 1, nil)
			if sent++; sent < messages {
				k.AfterCall(50*sim.Microsecond, send, nil)
			}
		}
		k.AfterCall(0, send, nil)
		k.Run(sim.Forever)
		if received != messages {
			b.Fatalf("%d of %d messages received", received, messages)
		}
		events += k.Dispatched()
		resumes += k.Resumes()
		k.Close()
	}
	b.ReportMetric(float64(events)/float64(b.N), "sim-events")
	b.ReportMetric(float64(resumes)/float64(b.N), "proc-resumes")
}

func BenchmarkDeviceSSD4KRandWrite(b *testing.B) {
	k := sim.NewKernel()
	d := device.NewSSD(k, "ssd", device.DefaultSSDParams(), rng.New(1))
	d.SetSustained(true)
	r := rng.New(2)
	done := 0
	k.Go("w", func(p *sim.Proc) {
		for {
			d.Write(p, r.Int63n(1<<36)&^4095, 4096)
			done++
		}
	})
	b.ResetTimer()
	k.Run(sim.Time(b.N) * 100 * sim.Microsecond)
	b.ReportMetric(float64(done)/(float64(b.N)*100e-6), "sim-iops")
}
