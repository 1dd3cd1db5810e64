package sim

import (
	"fmt"
	"testing"
)

// TestRunParallelOrderIndependence pins the pool's contract directly:
// results land in index-owned slots no matter the worker count.
func TestRunParallelOrderIndependence(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		out := make([]int, 100)
		jobs := make([]func(), len(out))
		for i := range jobs {
			i := i
			jobs[i] = func() { out[i] = i * i }
		}
		RunParallel(workers, jobs)
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunParallelPanicIsDeterministic(t *testing.T) {
	// Odd jobs panic in a kernel callback, even ones inside a process (a
	// model bug such as a Push to a closed Queue); the lowest index wins
	// either way.
	for _, first := range []int{1, 2} {
		jobs := make([]func(), 20)
		for i := range jobs {
			i := i
			jobs[i] = func() {
				k := NewKernel()
				defer k.Close()
				if i < first || i%3 != first%3 {
					return
				}
				msg := fmt.Sprintf("job %d", i)
				if i%2 == 1 {
					k.AfterCall(Time(20-i), func(any) { panic(msg) }, nil)
				} else {
					k.Go("model", func(p *Proc) {
						p.Sleep(Time(20 - i))
						panic(msg)
					})
				}
				k.Run(Forever)
			}
		}
		want := fmt.Sprintf("job %d", first)
		for _, workers := range []int{1, 4} {
			func() {
				defer func() {
					if r := recover(); r != want {
						t.Fatalf("workers=%d: recovered %v, want lowest-index panic %q", workers, r, want)
					}
				}()
				RunParallel(workers, jobs)
			}()
		}
	}
}
