package oslog

import (
	"sync"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/sim"
)

// stormParams is an async logger stressed enough that its queue
// overflows: one slow logger thread and a tiny queue bound.
func stormParams() params {
	p := afcephParams()
	p.threads = 1
	p.memoryLimit = 64
	return p
}

// runLoggerStorm drives one independent kernel: `writers` concurrent
// submitter processes hammering a single async logger. It
// returns the final stats and the worst per-call virtual time observed on
// any caller.
func runLoggerStorm(writers, calls int) (Stats, sim.Time) {
	k := sim.NewKernel()
	node := cpumodel.NewNode(k, "node", 16, cpumodel.JEMalloc)
	l := newLogger(k, "osd0", node, Async, stormParams())
	var worst sim.Time
	for w := 0; w < writers; w++ {
		site := w
		k.Go("writer", func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				t0 := p.Now()
				l.Log(p, site, 1)
				if d := p.Now() - t0; d > worst {
					worst = d
				}
			}
		})
	}
	k.Run(sim.Forever)
	return l.stats, worst
}

// TestAsyncLoggerConcurrentWritersNeverBlock is the §3.3 contract under
// load: with the queue overflowing, submitters still only ever pay
// CPU-queueing time — never logger-thread time — and every entry is
// either written or counted dropped. The test body also runs from
// several OS goroutines at once (independent kernels) so `go test -race`
// checks the logger has no hidden shared state; the simulation being
// deterministic, every goroutine must see bit-identical stats.
func TestAsyncLoggerConcurrentWritersNeverBlock(t *testing.T) {
	const (
		writers    = 8
		calls      = 500
		goroutines = 4
	)
	type outcome struct {
		st    Stats
		worst sim.Time
	}
	results := make([]outcome, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st, worst := runLoggerStorm(writers, calls)
			results[g] = outcome{st, worst}
		}(g)
	}
	wg.Wait()

	p := stormParams()
	first := results[0]
	if first.st.BlockTime.Value() != 0 {
		t.Fatalf("async callers blocked for %d ns", first.st.BlockTime.Value())
	}
	// A caller pays SubmitCPU plus at most core-queue waiting behind the
	// other 7 writers' submits; logger-thread entry costs must never
	// appear on the caller path.
	if limit := p.submitCPU * writers * 2; first.worst > limit {
		t.Fatalf("worst caller delay %v exceeds %v: submit path is blocking", first.worst, limit)
	}
	entries := first.st.Entries.Value()
	dropped := first.st.Dropped.Value()
	if dropped == 0 {
		t.Fatal("queue bound never overflowed; drop accounting untested")
	}
	if entries+dropped != writers*calls {
		t.Fatalf("entries %d + dropped %d != %d submitted", entries, dropped, writers*calls)
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != first {
			t.Fatalf("goroutine %d diverged: %+v vs %+v", g, results[g], first)
		}
	}
}
