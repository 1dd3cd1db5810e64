package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestShardLocksLazyAndStable(t *testing.T) {
	k := sim.NewKernel()
	s := NewShardLocks(k, "pg")
	a := s.Get(3)
	b := s.Get(3)
	if a != b {
		t.Fatal("same shard returned different locks")
	}
	if s.Get(4) == a {
		t.Fatal("different shards share a lock")
	}
	if len(s.locks) != 2 {
		t.Fatalf("len = %d", len(s.locks))
	}
}

func TestShardLocksAggregateStats(t *testing.T) {
	k := sim.NewKernel()
	s := NewShardLocks(k, "pg")
	for i := 0; i < 3; i++ {
		i := i
		k.Go("w", func(p *sim.Proc) {
			m := s.Get(i % 2)
			m.Lock(p)
			p.Sleep(sim.Millisecond)
			m.Unlock(p)
		})
	}
	k.Run(sim.Forever)
	agg := s.AggregateStats()
	if agg.Acquires != 3 {
		t.Fatalf("acquires = %d", agg.Acquires)
	}
	if agg.HoldTime != 3*sim.Millisecond {
		t.Fatalf("hold = %v", agg.HoldTime)
	}
	if agg.Contended != 1 { // two procs on shard 0 or 1 collide once
		t.Fatalf("contended = %d", agg.Contended)
	}
}

// dispatchWorld runs items through an OP_WQ pool with the given worker
// count and per-item processing time, returning the per-shard processing
// order and the total elapsed time.
func dispatchWorld(usePending bool, workers int, items []int, procTime sim.Time) (map[int][]int, sim.Time, *PoolStats) {
	k := sim.NewKernel()
	locks := NewShardLocks(k, "pg")
	order := make(map[int][]int)
	d := NewPool(k, "opwq", locks, 1, usePending, func(shard int, v int, done func(any), arg any) {
		k.AfterCall(procTime, func(any) {
			order[shard] = append(order[shard], v)
			done(arg)
		}, nil)
	})
	d.Start(workers)
	seq := 0
	k.Go("submitter", func(p *sim.Proc) {
		for _, shard := range items {
			d.Submit(shard, seq)
			seq++
			p.Sleep(0)
		}
		d.ready.Close()
	})
	k.Run(sim.Forever)
	return order, k.Now(), d.Stats()
}

func TestDispatcherProcessesEverything(t *testing.T) {
	items := []int{0, 1, 0, 1, 2, 0, 2, 1}
	for _, pending := range []bool{false, true} {
		order, _, st := dispatchWorld(pending, 3, items, 100*sim.Microsecond)
		total := 0
		for _, o := range order {
			total += len(o)
		}
		if total != len(items) {
			t.Fatalf("pending=%v processed %d of %d", pending, total, len(items))
		}
		if st.Processed.Value() != uint64(len(items)) {
			t.Fatalf("pending=%v stats.Processed = %d", pending, st.Processed.Value())
		}
	}
}

func TestDispatcherPreservesPerShardOrder(t *testing.T) {
	// Sequence numbers are global and increasing; per-shard order must be
	// increasing too — in both modes.
	items := make([]int, 200)
	for i := range items {
		items[i] = i % 3
	}
	for _, pending := range []bool{false, true} {
		order, _, _ := dispatchWorld(pending, 4, items, 50*sim.Microsecond)
		for shard, seqs := range order {
			for i := 1; i < len(seqs); i++ {
				if seqs[i] < seqs[i-1] {
					t.Fatalf("pending=%v shard %d out of order: %v", pending, shard, seqs)
				}
			}
		}
	}
}

func TestPendingQueueKeepsWorkersBusy(t *testing.T) {
	// A burst of hot-shard ops followed by cold-shard ops, two workers.
	// Blocking mode wedges both workers into the hot lock chain, so cold
	// ops wait for the whole hot burst; pending mode lets the second
	// worker defer hot ops and process cold ones concurrently (Fig. 5).
	var items []int
	for i := 0; i < 60; i++ {
		items = append(items, 0) // hot burst
	}
	for i := 0; i < 60; i++ {
		items = append(items, 1+i%4) // cold tail
	}
	_, blockedTime, blockedStats := dispatchWorld(false, 2, items, 200*sim.Microsecond)
	_, pendingTime, pendingStats := dispatchWorld(true, 2, items, 200*sim.Microsecond)
	if pendingTime >= blockedTime {
		t.Fatalf("pending (%v) not faster than blocking (%v)", pendingTime, blockedTime)
	}
	if pendingStats.Deferred.Value() == 0 {
		t.Fatal("pending mode never deferred")
	}
	if blockedStats.Blocked.Value() == 0 {
		t.Fatal("blocking mode never blocked")
	}
}

func TestDispatcherOrderProperty(t *testing.T) {
	f := func(raw []uint8, pending bool) bool {
		if len(raw) > 150 {
			raw = raw[:150]
		}
		items := make([]int, len(raw))
		for i, r := range raw {
			items[i] = int(r % 5)
		}
		order, _, _ := dispatchWorld(pending, 3, items, 10*sim.Microsecond)
		n := 0
		for _, seqs := range order {
			n += len(seqs)
			for i := 1; i < len(seqs); i++ {
				if seqs[i] < seqs[i-1] {
					return false
				}
			}
		}
		return n == len(items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// completionPool is a completion worker: one worker taking batches of up
// to batchMax, whose items are their own work.
func completionPool(k *sim.Kernel, locks *ShardLocks, batchMax int) *Pool[func(func(any), any)] {
	w := NewPool(k, "comp", locks, batchMax, false, func(_ int, fn func(func(any), any), done func(any), arg any) {
		fn(done, arg)
	})
	w.Start(1)
	return w
}

func TestCompletionWorkerBatchesPerShardLock(t *testing.T) {
	k := sim.NewKernel()
	locks := NewShardLocks(k, "pg")
	w := completionPool(k, locks, 64)
	done := 0
	k.Go("producer", func(p *sim.Proc) {
		// Queue 32 completions for one shard while the worker is busy
		// elsewhere, so they arrive as one batch.
		locks.Get(9).Lock(p)
		for i := 0; i < 32; i++ {
			w.Submit(9, func(next func(any), arg any) { done++; next(arg) })
		}
		p.Sleep(sim.Millisecond)
		locks.Get(9).Unlock(p)
	})
	k.Run(sim.Forever)
	if done != 32 {
		t.Fatalf("done = %d", done)
	}
	st := w.Stats()
	if st.LockAcquires.Value() >= st.Taken.Value() {
		t.Fatalf("no batching: %d lock acquires for %d completions",
			st.LockAcquires.Value(), st.Taken.Value())
	}
}

func TestCompletionWorkerRunsUnderLock(t *testing.T) {
	k := sim.NewKernel()
	locks := NewShardLocks(k, "pg")
	w := completionPool(k, locks, 64)
	ok := false
	k.Go("producer", func(p *sim.Proc) {
		w.Submit(1, func(next func(any), arg any) {
			ok = locks.Get(1).Locked()
			next(arg)
		})
	})
	k.Run(sim.Forever)
	if !ok {
		t.Fatal("completion ran without the shard lock held")
	}
}

func TestCompletionWorkerPerShardOrder(t *testing.T) {
	k := sim.NewKernel()
	locks := NewShardLocks(k, "pg")
	w := completionPool(k, locks, 64)
	var got []int
	k.Go("producer", func(p *sim.Proc) {
		locks.Get(2).Lock(p) // hold so batch accumulates
		for i := 0; i < 10; i++ {
			i := i
			w.Submit(2, func(next func(any), arg any) { got = append(got, i); next(arg) })
		}
		p.Sleep(sim.Millisecond)
		locks.Get(2).Unlock(p)
	})
	k.Run(sim.Forever)
	for i, v := range got {
		if v != i {
			t.Fatalf("completion order: %v", got)
		}
	}
}

// TestCompletionWorkerClose closes the queue while completions are still
// queued behind a held shard lock: the worker drains them in two batches,
// then stops waiting on the closed queue, and the run ends.
func TestCompletionWorkerClose(t *testing.T) {
	k := sim.NewKernel()
	locks := NewShardLocks(k, "pg")
	w := completionPool(k, locks, 4)
	ran := 0
	k.Go("closer", func(p *sim.Proc) {
		locks.Get(3).Lock(p)
		for i := 0; i < 6; i++ {
			w.Submit(3, func(next func(any), arg any) { ran++; next(arg) })
		}
		w.ready.Close()
		p.Sleep(sim.Millisecond)
		locks.Get(3).Unlock(p)
	})
	k.Run(sim.Forever)
	if ran != 6 || w.Stats().Batches.Value() != 2 {
		t.Fatalf("ran %d completions in %d batches, want 6 in 2", ran, w.Stats().Batches.Value())
	}
	if k.Live() != 0 || w.ready.Len() != 0 {
		t.Fatalf("%d procs live, %d completions queued after close", k.Live(), w.ready.Len())
	}
}

// TestPoolStopped stops a finisher-shaped pool (one worker, one item per
// take) between two items: the worker drops the item it takes next and
// stops, so a later item stays queued and the run ends.
func TestPoolStopped(t *testing.T) {
	k := sim.NewKernel()
	locks := NewShardLocks(k, "pg")
	stopped := false
	var ran []int
	w := NewPool(k, "fin", locks, 1, false, func(_ int, v int, done func(any), arg any) {
		ran = append(ran, v)
		k.AfterCall(sim.Millisecond, done, arg)
	})
	w.Stopped = func() bool { return stopped }
	w.Start(1)
	k.Go("producer", func(p *sim.Proc) {
		w.Submit(1, 1)
		w.Submit(1, 2)
		p.Sleep(sim.Microsecond) // item 1 is in service, item 2 queued
		stopped = true
		p.Sleep(10 * sim.Millisecond)
		w.Submit(1, 3)
	})
	k.Run(sim.Forever)
	if len(ran) != 1 || ran[0] != 1 {
		t.Fatalf("processed %v, want only the item taken before the stop", ran)
	}
	if n := w.Stats().Processed.Value(); n != 1 {
		t.Fatalf("processed count %d, want 1", n)
	}
	if w.QueueLen() != 1 || locks.Get(1).Locked() {
		t.Fatalf("%d items queued, lock held %v; want the late item queued and the lock free",
			w.QueueLen(), locks.Get(1).Locked())
	}
}

func TestThrottleConfigs(t *testing.T) {
	hdd := HDDThrottles()
	ssd := SSDThrottles()
	if hdd.FilestoreQueueMaxOps >= ssd.FilestoreQueueMaxOps {
		t.Fatal("SSD filestore throttle should be much deeper than HDD")
	}
	if hdd.OSDClientMessageCap >= ssd.OSDClientMessageCap {
		t.Fatal("SSD message cap should exceed HDD")
	}
	if hdd.FilestoreQueueMaxOps != 50 {
		t.Fatalf("stock filestore_queue_max_ops = %d, want 50", hdd.FilestoreQueueMaxOps)
	}
}
