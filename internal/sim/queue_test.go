package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 0)
	var got []int
	k.Go("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.Push(p, i)
			p.Sleep(Microsecond)
		}
		q.Close()
	})
	k.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Pop(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	k.Run(Forever)
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want 0..9 in order", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("got %d items", len(got))
	}
}

func TestQueueCapacityBlocksProducer(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 2)
	var pushDone Time
	k.Go("producer", func(p *Proc) {
		q.Push(p, 1)
		q.Push(p, 2)
		q.Push(p, 3) // blocks until consumer pops at 5ms
		pushDone = p.Now()
	})
	k.Go("consumer", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		q.Pop(p)
	})
	k.Run(Forever)
	if pushDone != 5*Millisecond {
		t.Fatalf("third push completed at %v, want 5ms", pushDone)
	}
	if q.BlockedPushes() != 1 {
		t.Fatalf("blocked pushes = %d", q.BlockedPushes())
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	k := NewKernel()
	q := NewQueue[string](k, "q", 0)
	var got string
	var at Time
	k.Go("consumer", func(p *Proc) {
		v, ok := q.Pop(p)
		if !ok {
			t.Error("pop failed")
		}
		got, at = v, p.Now()
	})
	k.Go("producer", func(p *Proc) {
		p.Sleep(7 * Millisecond)
		q.Push(p, "hello")
	})
	k.Run(Forever)
	if got != "hello" || at != 7*Millisecond {
		t.Fatalf("got %q at %v", got, at)
	}
	if q.BlockedPops() != 1 {
		t.Fatalf("blocked pops = %d", q.BlockedPops())
	}
}

func TestQueueTryOps(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 1)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
	if !q.TryPush(42) {
		t.Fatal("TryPush failed with room")
	}
	if q.TryPush(43) {
		t.Fatal("TryPush succeeded when full")
	}
	if v, ok := q.Peek(); !ok || v != 42 {
		t.Fatalf("Peek = %d, %v", v, ok)
	}
	if v, ok := q.TryPop(); !ok || v != 42 {
		t.Fatalf("TryPop = %d, %v", v, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestQueueCloseWakesGetters(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 0)
	results := make([]bool, 3)
	for i := 0; i < 3; i++ {
		i := i
		k.Go("getter", func(p *Proc) {
			_, ok := q.Pop(p)
			results[i] = ok
		})
	}
	k.Go("closer", func(p *Proc) {
		p.Sleep(Millisecond)
		q.Close()
	})
	k.Run(Forever)
	for i, ok := range results {
		if ok {
			t.Fatalf("getter %d got ok=true from closed empty queue", i)
		}
	}
	if k.Live() != 0 {
		t.Fatalf("%d procs still blocked", k.Live())
	}
}

func TestQueuePushToClosedPanics(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 0)
	q.Close()
	k.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Push to closed queue did not panic")
			}
		}()
		q.Push(p, 1)
	})
	k.Run(Forever)
}

func TestQueueStats(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 0)
	k.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Push(p, i)
		}
		q.TryPop()
	})
	k.Run(Forever)
	if q.Pushes() != 5 || q.MaxDepth() != 5 || q.Len() != 4 {
		t.Fatalf("pushes=%d maxDepth=%d len=%d", q.Pushes(), q.MaxDepth(), q.Len())
	}
	if q.Cap() != 0 || q.Name() != "q" {
		t.Fatal("metadata mismatch")
	}
}

// Property: for any sequence of pushed values, a single consumer pops
// exactly that sequence (FIFO order preserved, nothing lost or duplicated).
func TestQueuePreservesSequenceProperty(t *testing.T) {
	f := func(vals []int16, capRaw uint8) bool {
		capacity := int(capRaw % 8) // 0..7
		k := NewKernel()
		q := NewQueue[int16](k, "q", capacity)
		var got []int16
		k.Go("producer", func(p *Proc) {
			for _, v := range vals {
				q.Push(p, v)
			}
			q.Close()
		})
		k.Go("consumer", func(p *Proc) {
			for {
				v, ok := q.Pop(p)
				if !ok {
					return
				}
				got = append(got, v)
				p.Sleep(Time(1))
			}
		})
		k.Run(Forever)
		return fmt.Sprint(got) == fmt.Sprint(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerializesBeyondServers(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "dev", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		k.Go("u", func(p *Proc) {
			r.Use(p, Millisecond)
			finish = append(finish, p.Now())
		})
	}
	k.Run(Forever)
	// 4 jobs of 1ms on 2 servers: finish at 1,1,2,2 ms.
	want := []Time{Millisecond, Millisecond, 2 * Millisecond, 2 * Millisecond}
	if fmt.Sprint(finish) != fmt.Sprint(want) {
		t.Fatalf("finish = %v, want %v", finish, want)
	}
}

func TestResourceUtilization(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "dev", 1)
	k.Go("u", func(p *Proc) {
		r.Use(p, Second)
	})
	k.Run(2 * Second)
	u := r.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestResourceAcquireRelease(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "dev", 1)
	var order []string
	k.Go("a", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(Millisecond)
		order = append(order, "a")
		r.Release()
	})
	k.Go("b", func(p *Proc) {
		r.Acquire(p)
		order = append(order, "b")
		r.Release()
	})
	k.Run(Forever)
	if fmt.Sprint(order) != "[a b]" {
		t.Fatalf("order = %v", order)
	}
}

func TestResourcePanicsOnZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewResource(NewKernel(), "bad", 0)
}

func TestResourceQueueHighWater(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "dev", 1)
	for i := 0; i < 5; i++ {
		k.Go("u", func(p *Proc) { r.Use(p, Millisecond) })
	}
	// Once all 5 users have started, one holds the server and 4 queue.
	k.Run(0)
	if r.QueueLen() != 4 {
		t.Fatalf("QueueLen = %d, want 4", r.QueueLen())
	}
	k.Run(Forever)
	if r.QueueLen() != 0 {
		t.Fatalf("QueueLen = %d after drain", r.QueueLen())
	}
}
