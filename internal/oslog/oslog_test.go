package oslog

import (
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/sim"
)

func newLogger(k *sim.Kernel, mode Mode, params Params) (*Logger, *cpumodel.Node) {
	node := cpumodel.NewNode(k, "node", 8, cpumodel.JEMalloc)
	return New(k, "osd0", node, mode, params), node
}

func TestOffModeIsFree(t *testing.T) {
	k := sim.NewKernel()
	l, node := newLogger(k, Off, CommunityParams())
	k.Go("io", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			l.Log(p, i, 5)
		}
	})
	k.Run(sim.Forever)
	if k.Now() != 0 || node.BusyNanos() != 0 {
		t.Fatal("Off mode consumed time")
	}
	if l.Stats().Entries.Value() != 0 {
		t.Fatal("Off mode recorded entries")
	}
}

func TestSyncBlocksSubmitter(t *testing.T) {
	k := sim.NewKernel()
	l, _ := newLogger(k, Sync, CommunityParams())
	var elapsed sim.Time
	k.Go("io", func(p *sim.Proc) {
		t0 := p.Now()
		l.Log(p, 1, 4)
		elapsed = p.Now() - t0
	})
	k.Run(sim.Forever)
	want := CommunityParams().EntryCPU * 4
	if elapsed < want {
		t.Fatalf("sync submit returned after %v, want >= %v", elapsed, want)
	}
	if l.Stats().BlockTime.Value() == 0 {
		t.Fatal("block time not recorded")
	}
}

func TestAsyncSubmitReturnsImmediately(t *testing.T) {
	k := sim.NewKernel()
	l, _ := newLogger(k, Async, AFCephParams())
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
	if elapsed > 100*AFCephParams().SubmitCPU*10 {
		t.Fatalf("async submit path too slow: %v", elapsed)
	}
	if l.Stats().Entries.Value() != 400 {
		t.Fatalf("entries = %d, want 400 drained in background", l.Stats().Entries.Value())
	}
}

func TestSyncSingleThreadSerializes(t *testing.T) {
	// Many concurrent submitters through one sync logger thread: total time
	// is at least entries*EntryCPU (no parallelism).
	k := sim.NewKernel()
	params := CommunityParams()
	l, _ := newLogger(k, Sync, params)
	const workers, per = 8, 50
	for i := 0; i < workers; i++ {
		k.Go("io", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				l.Log(p, j, 1)
			}
		})
	}
	k.Run(sim.Forever)
	minTime := params.EntryCPU * sim.Time(workers*per)
	if k.Now() < minTime {
		t.Fatalf("finished in %v, single thread needs >= %v", k.Now(), minTime)
	}
}

func TestAsyncMultiThreadParallelism(t *testing.T) {
	// The same entry volume drains faster with the async multi-thread
	// logger than the sync single-thread one.
	drainTime := func(mode Mode, params Params) sim.Time {
		k := sim.NewKernel()
		l, _ := newLogger(k, mode, params)
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
	syncT := drainTime(Sync, CommunityParams())
	asyncT := drainTime(Async, AFCephParams())
	if asyncT >= syncT {
		t.Fatalf("async total %v not faster than sync %v", asyncT, syncT)
	}
}

func TestLogCacheHits(t *testing.T) {
	k := sim.NewKernel()
	l, _ := newLogger(k, Async, AFCephParams())
	k.Go("io", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			l.Log(p, 7, 1) // same site every time
		}
	})
	k.Run(sim.Forever)
	if hits := l.Stats().CacheHits.Value(); hits != 99 {
		t.Fatalf("cache hits = %d, want 99", hits)
	}
}

func TestMemoryLimitDropsEntries(t *testing.T) {
	k := sim.NewKernel()
	params := AFCephParams()
	params.MemoryLimit = 10
	params.Threads = 1
	params.EntryCPU = sim.Millisecond // slow drain to force backlog
	params.CachedEntryCPU = sim.Millisecond
	l, _ := newLogger(k, Async, params)
	k.Go("io", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			l.Log(p, i, 1)
		}
	})
	k.Run(sim.Forever)
	if l.Stats().Dropped.Value() == 0 {
		t.Fatal("no drops despite memory limit")
	}
	if l.Stats().Entries.Value()+l.Stats().Dropped.Value() != 1000 {
		t.Fatalf("entries %d + dropped %d != 1000",
			l.Stats().Entries.Value(), l.Stats().Dropped.Value())
	}
}

func TestZeroCountIsNoop(t *testing.T) {
	k := sim.NewKernel()
	l, _ := newLogger(k, Sync, CommunityParams())
	k.Go("io", func(p *sim.Proc) {
		l.Log(p, 1, 0)
		l.Log(p, 1, -3)
	})
	k.Run(sim.Forever)
	if l.Stats().Entries.Value() != 0 {
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
		l, _ := newLogger(k, mode, AFCephParams())
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
