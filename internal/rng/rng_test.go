package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Fork()
	// Child stream should differ from continuing parent stream.
	diff := false
	for i := 0; i < 64; i++ {
		if parent.Uint64() != child.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("fork mirrors parent")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRangeProperty(t *testing.T) {
	r := New(5)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt63nRange(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := New(9)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(17)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(5.0)
		if v < 0 {
			t.Fatal("negative exponential sample")
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-5.0) > 0.1 {
		t.Fatalf("exp mean = %v, want ~5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(19)
	sum, sumSq := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("normal stddev = %v", math.Sqrt(variance))
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		if r.LogNormal(0, 0.5) <= 0 {
			t.Fatal("non-positive lognormal")
		}
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(29)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(2.0, 3.0)
		if v < 2.0 {
			t.Fatalf("pareto sample %v below xm", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(31)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", p)
	}
}
