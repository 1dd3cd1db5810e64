package oslog

import (
	"fmt"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/sim"
)

func testLogger(k *sim.Kernel, mode Mode, p params) (*Logger, *cpumodel.Node) {
	node := cpumodel.NewNode(k, "node", 8, cpumodel.JEMalloc)
	return newLogger(k, "osd0", node, mode, p), node
}

func TestOffModeIsFree(t *testing.T) {
	k := sim.NewKernel()
	l, node := testLogger(k, Off, communityParams())
	k.Go("io", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			l.Log(p, i, 5)
		}
	})
	k.Run(sim.Forever)
	if k.Now() != 0 || node.BusyNanos() != 0 {
		t.Fatal("Off mode consumed time")
	}
	if l.stats.Entries.Value() != 0 {
		t.Fatal("Off mode recorded entries")
	}
}

func TestSyncBlocksSubmitter(t *testing.T) {
	k := sim.NewKernel()
	l, _ := testLogger(k, Sync, communityParams())
	var elapsed sim.Time
	k.Go("io", func(p *sim.Proc) {
		t0 := p.Now()
		l.Log(p, 1, 4)
		elapsed = p.Now() - t0
	})
	k.Run(sim.Forever)
	want := communityParams().entryCPU * 4
	if elapsed < want {
		t.Fatalf("sync submit returned after %v, want >= %v", elapsed, want)
	}
	if l.stats.BlockTime.Value() == 0 {
		t.Fatal("block time not recorded")
	}
}

func TestAsyncSubmitReturnsImmediately(t *testing.T) {
	k := sim.NewKernel()
	l, _ := testLogger(k, Async, afcephParams())
	var elapsed sim.Time
	k.Go("io", func(p *sim.Proc) {
		t0 := p.Now()
		for i := 0; i < 100; i++ {
			l.Log(p, i, 4)
		}
		elapsed = p.Now() - t0
	})
	k.Run(sim.Forever)
	// Submitter pays only SubmitCPU per call (plus core queueing).
	if elapsed > 100*afcephParams().submitCPU*10 {
		t.Fatalf("async submit path too slow: %v", elapsed)
	}
	if l.stats.Entries.Value() != 400 {
		t.Fatalf("entries = %d, want 400 drained in background", l.stats.Entries.Value())
	}
}

func TestSyncSingleThreadSerializes(t *testing.T) {
	// Many concurrent submitters through one sync logger thread: total time
	// is at least entries*EntryCPU (no parallelism).
	k := sim.NewKernel()
	p := communityParams()
	l, _ := testLogger(k, Sync, p)
	const workers, per = 8, 50
	for i := 0; i < workers; i++ {
		k.Go("io", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				l.Log(p, j, 1)
			}
		})
	}
	k.Run(sim.Forever)
	minTime := p.entryCPU * sim.Time(workers*per)
	if k.Now() < minTime {
		t.Fatalf("finished in %v, single thread needs >= %v", k.Now(), minTime)
	}
}

func TestAsyncMultiThreadParallelism(t *testing.T) {
	// The same entry volume drains faster with the async multi-thread
	// logger than the sync single-thread one.
	drainTime := func(mode Mode, p params) sim.Time {
		k := sim.NewKernel()
		l, _ := testLogger(k, mode, p)
		for i := 0; i < 8; i++ {
			k.Go("io", func(p *sim.Proc) {
				for j := 0; j < 100; j++ {
					l.Log(p, j%16, 2)
				}
			})
		}
		k.Run(sim.Forever)
		return k.Now()
	}
	syncT := drainTime(Sync, communityParams())
	asyncT := drainTime(Async, afcephParams())
	if asyncT >= syncT {
		t.Fatalf("async total %v not faster than sync %v", asyncT, syncT)
	}
}

func TestLogCacheHits(t *testing.T) {
	k := sim.NewKernel()
	l, _ := testLogger(k, Async, afcephParams())
	k.Go("io", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			l.Log(p, 7, 1) // same site every time
		}
	})
	k.Run(sim.Forever)
	if hits := l.stats.CacheHits.Value(); hits != 99 {
		t.Fatalf("cache hits = %d, want 99", hits)
	}
}

func TestMemoryLimitDropsEntries(t *testing.T) {
	k := sim.NewKernel()
	p := afcephParams()
	p.memoryLimit = 10
	p.threads = 1
	p.entryCPU = sim.Millisecond // slow drain to force backlog
	p.cachedEntryCPU = sim.Millisecond
	l, _ := testLogger(k, Async, p)
	k.Go("io", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			l.Log(p, i, 1)
		}
	})
	k.Run(sim.Forever)
	if l.stats.Dropped.Value() == 0 {
		t.Fatal("no drops despite memory limit")
	}
	if l.stats.Entries.Value()+l.stats.Dropped.Value() != 1000 {
		t.Fatalf("entries %d + dropped %d != 1000",
			l.stats.Entries.Value(), l.stats.Dropped.Value())
	}
}

func TestZeroCountIsNoop(t *testing.T) {
	k := sim.NewKernel()
	l, _ := testLogger(k, Sync, communityParams())
	k.Go("io", func(p *sim.Proc) {
		l.Log(p, 1, 0)
		l.Log(p, 1, -3)
	})
	k.Run(sim.Forever)
	if l.stats.Entries.Value() != 0 {
		t.Fatal("zero-count log recorded entries")
	}
}

func TestModeString(t *testing.T) {
	if Off.String() != "off" || Sync.String() != "sync" || Async.String() != "async" ||
		Mode(9).String() != "unknown" {
		t.Fatal("mode names wrong")
	}
}

// TestNewSpawnsNoProc pins that the logger threads are kernel callbacks:
// no mode spawns a process, and every resume belongs to the submitter —
// its start, one SubmitCPU charge per Log, and in Sync mode one wake per
// batch the logger completes.
func TestNewSpawnsNoProc(t *testing.T) {
	resumes := map[Mode]uint64{Off: 1, Sync: 1 + 10*2, Async: 1 + 10}
	for _, mode := range []Mode{Off, Sync, Async} {
		k := sim.NewKernel()
		l, _ := testLogger(k, mode, afcephParams())
		if k.Spawned() != 0 {
			t.Fatalf("%v: New spawned %d procs", mode, k.Spawned())
		}
		k.Go("io", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				l.Log(p, i, 1)
			}
		})
		k.Run(sim.Forever)
		if k.Spawned() != 1 || k.Live() != 0 {
			t.Fatalf("%v: spawned %d, live %d; want only the submitter", mode, k.Spawned(), k.Live())
		}
		if k.Resumes() != resumes[mode] {
			t.Fatalf("%v: %d resumes, want %d", mode, k.Resumes(), resumes[mode])
		}
	}
}

// TestLogCallMatchesLog runs submitters that log twice each as procs, and
// again with every other submitter a LogCall chain, and requires the same
// completion trace, BlockTime, entries, drops and dispatched events, with
// fewer resumes. A Sync Log waits on the same Call as LogCall, so the proc
// run is also held to pinned literals.
func TestLogCallMatchesLog(t *testing.T) {
	bounded := afcephParams()
	bounded.memoryLimit = 2
	cases := []struct {
		name   string
		mode   Mode
		params params
		// The all-proc run's completion trace and kernel counters,
		// recorded when a Sync Log waited on an event of its own.
		trace               string
		dispatched, resumes uint64
	}{
		{"sync", Sync, communityParams(),
			"[12.552us:s0.0 23.652us:s1.0 34.698us:s2.0 45.726us:s3.0 56.736us:s4.0 67.746us:s5.0 " +
				"78.756us:s0.1 89.766us:s1.1 100.758us:s2.1 111.750us:s3.1 122.742us:s4.1 133.716us:s5.1]", 52, 38},
		{"async-bounded", Async, bounded,
			"[300ns:s0.0 300ns:s1.0 600ns:s0.1 600ns:s1.1 14.352us:s2.0 14.652us:s3.0 " +
				"14.952us:s4.0 15.252us:s5.0 15.552us:s2.1 17.052us:s3.1 25.404us:s4.1 29.604us:s5.1]", 67, 32},
	}
	run := func(mode Mode, p params, convert bool) ([]string, *Logger, *sim.Kernel) {
		k := sim.NewKernel()
		node := cpumodel.NewNode(k, "node", 2, cpumodel.JEMalloc)
		l := newLogger(k, "osd0", node, mode, p)
		var trace []string
		note := func(i, step int) { trace = append(trace, fmt.Sprintf("%v:s%d.%d", k.Now(), i, step)) }
		for i := 0; i < 6; i++ {
			i := i
			start := sim.Time(i/2) * sim.Microsecond
			if convert && i%2 == 1 {
				var c Call
				step := 0
				c.Done = func(any) {
					note(i, step)
					if step++; step < 2 {
						l.LogCall(&c, i+step, 3)
					}
				}
				k.AfterCall(0, func(any) {
					k.AfterCall(start, func(any) { l.LogCall(&c, i, 3) }, nil)
				}, nil)
				continue
			}
			k.Go("io", func(p *sim.Proc) {
				p.Sleep(start)
				for step := 0; step < 2; step++ {
					l.Log(p, i+step, 3)
					note(i, step)
				}
			})
		}
		k.Run(sim.Forever)
		return trace, l, k
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, lp, kp := run(tc.mode, tc.params, false)
			got, lc, kc := run(tc.mode, tc.params, true)
			if fmt.Sprint(want) != tc.trace || kp.Dispatched() != tc.dispatched || kp.Resumes() != tc.resumes {
				t.Fatalf("procs: trace %v, dispatched %d, resumes %d; want %s, %d, %d",
					want, kp.Dispatched(), kp.Resumes(), tc.trace, tc.dispatched, tc.resumes)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trace differs\nprocs:     %v\ncallbacks: %v", want, got)
			}
			sp, sc := &lp.stats, &lc.stats
			if sc.BlockTime.Value() != sp.BlockTime.Value() || sc.Entries.Value() != sp.Entries.Value() ||
				sc.Dropped.Value() != sp.Dropped.Value() {
				t.Fatalf("stats differ: callbacks %+v, procs %+v", *sc, *sp)
			}
			if tc.mode == Sync && sp.BlockTime.Value() == 0 {
				t.Fatal("sync submitters never blocked")
			}
			if kc.Dispatched() != kp.Dispatched() || kc.Resumes() >= kp.Resumes() {
				t.Fatalf("dispatched %d resumes %d, procs %d and %d",
					kc.Dispatched(), kc.Resumes(), kp.Dispatched(), kp.Resumes())
			}
		})
	}
}
