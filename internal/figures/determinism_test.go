package figures

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"
)

// reportHash collapses everything a figure emits — title, header, every
// cell, every note — into one digest, so "bit-identical figure output"
// is a single string comparison.
func reportHash(rep Report) string {
	h := sha256.New()
	h.Write([]byte(rep.Title))
	h.Write([]byte{0})
	h.Write([]byte(rep.CSV()))
	h.Write([]byte{0})
	h.Write([]byte(strings.Join(rep.Notes, "\n")))
	writeU64 := func(u uint64) {
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, s := range rep.Series {
		h.Write([]byte(s.Name))
		for _, ts := range s.T {
			writeU64(uint64(ts))
		}
		for _, v := range s.V {
			writeU64(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenFigures is every figure config the determinism gate covers, at a
// scale small enough to run each five times, with the reportHash each must
// produce. The want column pins behaviour across commits: a change that
// moves any figure by one bit fails here, not just one that makes a figure
// disagree with itself. Update a hash only with a change that means to
// alter that figure's output, and say so in its description.
var goldenFigures = []struct {
	name string
	run  func(Options) Report
	want string
}{
	{"fig1", Fig1, "db9f7535f27487b3155e948e4e412f9d1bb1b6f541b46097c2bd0008cacc6e84"},
	{"fig3", Fig3, "5a8ca2d1f8c21e86d0dcf904ef69f0296cd63fa745d41441a1257bd1f9f03a6a"},
	{"fig4", Fig4, "5a0f71f01f5c39bdd509bc179425e25f8d642c895c04135ca83ccde3e7b50c92"},
	{"fig9", Fig9, "6366c50a96fcba140aa95070a9fd237c61cc6b1c06fc9eab3e7140b2b70e9c03"},
	{"fig10", func(o Options) Report { return Fig10(o, []int{10}, []string{"4K-randwrite"}) }, "fa7b9998ddaf5376e846bc6c150e7ccb40d5454c0d740d28f8da4efedf59d939"},
	{"fig11", Fig11, "51b39d314eeec8f9eb94b6989e86bee92b726ab41bd068f95f650c14403a62ee"},
	{"fig12", func(o Options) Report { return Fig12(o, []int{2, 4}) }, "059985c149c2d563aa9dd18e5bae91d4baff7436ad9c5e9820caef634ff560fc"},
	{"breakdown", LatencyBreakdown, "e519b739b34d241eb6d6934a24361c794d31a00d5932a478bf59b6fcf88e0a4f"},
	{"backends", func(o Options) Report { return Backends(o, nil) }, "aea2bb0c164fc0d34bd6345f108865eadd712f309e30003e9b788267a28b218d"},
	{"scrub", Scrub, "bb00ab823f96dcb29951475c8ea8f6164abda7d8fb48c375d7a383d30574b338"},
	{"scenarios", Scenarios, "034bc59363f0117492a6d7c0333ed60e2332ac3b0781a36d6cda166244b914dc"},
	{"ecvsrep", ECvsRep, "cd7a09a1ec373082fe24f1a4476123ec77f4f4e6d21c8e9fe6365e60bd074c36"},
}

// TestFigureDeterminism is the golden gate behind every benchmark
// comparison and EXPERIMENTS.md claim: a figure hashes to its pinned
// golden value, rendered twice from the same options it hashes
// identically, and rendering under deliberately
// different host parallelism — one point-pool worker, eight workers, and
// the whole runtime pinned to GOMAXPROCS=1 — hashes identically too. The
// simulation must not observe host parallelism in any form.
func TestFigureDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every figure five times")
	}
	opt := Options{Scale: 0.04, RuntimeSec: 0.6, RampSec: 0.2, JournalMB: 32, Seed: 1}
	for _, fig := range goldenFigures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			first := reportHash(fig.run(opt))
			if first != fig.want {
				t.Fatalf("output drifted from the pinned golden hash: got %s, want %s", first, fig.want)
			}
			if again := reportHash(fig.run(opt)); again != first {
				t.Fatalf("same options diverged: %s then %s", first, again)
			}
			for _, workers := range []int{1, 8} {
				wopt := opt
				wopt.Workers = workers
				if h := reportHash(fig.run(wopt)); h != first {
					t.Fatalf("%d point workers diverged: %s vs %s", workers, h, first)
				}
			}
			prev := runtime.GOMAXPROCS(1)
			serial := reportHash(fig.run(opt))
			runtime.GOMAXPROCS(prev)
			if serial != first {
				t.Fatalf("GOMAXPROCS=1 diverged: %s vs %s", serial, first)
			}
		})
	}
}

// TestParallelPointsDifferentialShort is the -short/-race slice of the
// differential harness: one multi-point figure at minuscule scale rendered
// with 1 and 8 point workers must hash identically. scripts/check.sh runs
// this package under -race -short, so the race detector watches concurrent
// whole-cluster simulations through this test on every tier-1 run.
func TestParallelPointsDifferentialShort(t *testing.T) {
	opt := Options{Scale: 0.02, RuntimeSec: 0.3, RampSec: 0.1, JournalMB: 16, Seed: 1}
	opt.Workers = 1
	first := reportHash(Fig9(opt))
	opt.Workers = 8
	if h := reportHash(Fig9(opt)); h != first {
		t.Fatalf("point-parallel Fig9 diverged: %s vs %s", h, first)
	}
}

// TestPerfDumpDeterminism extends the gate to the perf-dump JSON surface
// (the afbench/afsim -perf-dump hook): the full dump of a rendered
// cluster must be byte-identical across repeated runs and under
// GOMAXPROCS=1.
func TestPerfDumpDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the breakdown cluster three times")
	}
	opt := Options{Scale: 0.04, RuntimeSec: 0.6, RampSec: 0.2, JournalMB: 32, Seed: 1}
	_, first := LatencyBreakdownWithPerf(opt)
	if first == "" {
		t.Fatal("perf dump empty")
	}
	if _, again := LatencyBreakdownWithPerf(opt); again != first {
		t.Fatal("perf dump diverged across identical runs")
	}
	prev := runtime.GOMAXPROCS(1)
	_, serial := LatencyBreakdownWithPerf(opt)
	runtime.GOMAXPROCS(prev)
	if serial != first {
		t.Fatal("perf dump diverged under GOMAXPROCS=1")
	}
}
