package figures

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/osd"
	"repro/internal/sim"
)

func TestOptionsScaling(t *testing.T) {
	opt := Options{Scale: 0.25, RuntimeSec: 2, RampSec: 0.8}
	if got := opt.scaleVMs(80); got != 20 {
		t.Fatalf("scaleVMs(80) = %d", got)
	}
	if got := opt.scaleVMs(1); got != 1 {
		t.Fatalf("scaleVMs(1) = %d, floor is 1", got)
	}
	if got := opt.runtime(); got != 500*sim.Millisecond {
		t.Fatalf("runtime = %v", got)
	}
	if got := opt.ramp(); got != 200*sim.Millisecond {
		t.Fatalf("ramp = %v", got)
	}
}

func TestScaleLoadPreservesInflight(t *testing.T) {
	opt := Options{Scale: 0.25}
	vms, depth := opt.scaleLoad(80, 8)
	if vms != 20 {
		t.Fatalf("vms = %d", vms)
	}
	if vms*depth != 80*8 {
		t.Fatalf("in-flight %d != %d", vms*depth, 80*8)
	}
	// Depth never shrinks below the nominal and is capped at 128.
	opt.Scale = 0.01
	_, depth = opt.scaleLoad(80, 8)
	if depth != 128 {
		t.Fatalf("depth cap = %d", depth)
	}
	opt.Scale = 1
	vms, depth = opt.scaleLoad(80, 8)
	if vms != 80 || depth != 8 {
		t.Fatalf("identity scaling broken: %d x %d", vms, depth)
	}
}

func TestRampWriteFloor(t *testing.T) {
	opt := Options{Scale: 0.1, RampSec: 0.6}
	if got := opt.rampWrite(); got != 800*sim.Millisecond {
		t.Fatalf("rampWrite floor = %v", got)
	}
	opt = Options{Scale: 1, RampSec: 2.0}
	if got := opt.rampWrite(); got != 2*sim.Second {
		t.Fatalf("rampWrite above floor = %v", got)
	}
}

func TestReportString(t *testing.T) {
	rep := Report{
		Title:  "test figure",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"a note"},
	}
	s := rep.String()
	for _, want := range []string{"test figure", "a note", "1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestWithJournalOverride(t *testing.T) {
	p := withJournal(cluster.DefaultParams(), 64)
	if got := p.OSD.JournalSize; got != 64<<20 {
		t.Fatalf("journal = %d", got)
	}
	same := withJournal(cluster.DefaultParams(), 0)
	if got := same.OSD.JournalSize; got != osd.CommunityConfig().JournalSize {
		t.Fatal("zero MB must keep the default")
	}
}

func TestFig9StepsCumulative(t *testing.T) {
	steps := fig9Steps()
	if len(steps) != 5 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].Tuning != osd.Community() {
		t.Fatal("baseline not stock")
	}
	if last := steps[len(steps)-1].Tuning; last != osd.AFCeph() {
		t.Fatalf("final fig9 step %+v drifted from AFCeph", last)
	}
}

// TestFigureSmoke runs every figure at minuscule scale to catch harness
// regressions; shape assertions live in the benchmarks and EXPERIMENTS.md.
func TestFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke is slow")
	}
	opt := Options{Scale: 0.05, RuntimeSec: 1, RampSec: 0.3, JournalMB: 32, Seed: 1}

	t.Run("fig3", func(t *testing.T) {
		rep := Fig3(opt)
		if len(rep.Rows) != len(fig3Stages) {
			t.Fatalf("rows = %d", len(rep.Rows))
		}
	})
	t.Run("breakdown", func(t *testing.T) {
		rep := LatencyBreakdown(opt)
		// 8 chain segments + end-to-end + the two async rows.
		if len(rep.Rows) != len(osd.WriteSpec.Segments)+3 {
			t.Fatalf("rows = %d", len(rep.Rows))
		}
	})
	t.Run("fig9", func(t *testing.T) {
		rep := Fig9(opt)
		if len(rep.Rows) != 5 {
			t.Fatalf("rows = %d", len(rep.Rows))
		}
	})
	t.Run("fig10", func(t *testing.T) {
		rep := Fig10(opt, []int{10}, []string{"4K-randwrite"})
		if len(rep.Rows) != 1 {
			t.Fatalf("rows = %d", len(rep.Rows))
		}
	})
	t.Run("fig12", func(t *testing.T) {
		rep := Fig12(opt, []int{2, 4})
		if len(rep.Rows) != 8 {
			t.Fatalf("rows = %d", len(rep.Rows))
		}
	})
	t.Run("loadpoint", func(t *testing.T) {
		res := LatencyVsLoadPoint(opt, osd.Community(), 10)
		if res.Ops == 0 {
			t.Fatal("no ops")
		}
	})
}

func TestReportCSV(t *testing.T) {
	rep := Report{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
	}
	want := "a,b\n1,2\n3,4\n"
	if got := rep.CSV(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
