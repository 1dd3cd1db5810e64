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
	jobs := make([]func(), 20)
	for i := range jobs {
		i := i
		jobs[i] = func() {
			if i%3 == 1 {
				panic(fmt.Sprintf("job %d", i))
			}
		}
	}
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "job 1" {
					t.Fatalf("workers=%d: recovered %v, want lowest-index panic \"job 1\"", workers, r)
				}
			}()
			RunParallel(workers, jobs)
		}()
	}
}
