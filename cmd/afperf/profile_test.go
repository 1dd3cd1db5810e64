package main

import (
	"bytes"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.chansend", "runtime.chansend1", "repro/internal/sim.(*Kernel).dispatchNext"}, "sched"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "sched"},
		{[]string{"runtime.mapaccess2_faststr", "repro/internal/osd.(*OSD).processWrite", "repro/internal/sim.(*Kernel).Go.func1"}, "osd"},
		{[]string{"runtime.(*gcWork).tryGet", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/osd.newOp"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", "repro/internal/kvstore.(*DB).Apply"}, "malloc"},
		{[]string{"runtime.memmove", "repro/internal/netsim.(*Endpoint).Send"}, "netsim"},
		{[]string{"repro/internal/sim.(*Queue[...]).Pop", "repro/internal/osd.(*OSD).journalWriter"}, "sim"},
		{[]string{"sync.(*Mutex).Lock", "repro/internal/oslog.(*Logger).Log"}, "osd"},
		{[]string{"repro/internal/stats.(*Histogram).Record", "repro/internal/workload.(*Fleet).Run.func1"}, "obs"},
		{[]string{"main.runRep", "main.main"}, "client"},
		{[]string{"repro/internal/figures.Fig1"}, "other"},
		{[]string{"runtime._System"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spinForProfile(until time.Time) int {
	n := 0
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestProfileRoundTrip decodes a CPU profile recorded here and finds the
// spinning function in it, attributed to the client layer.
func TestProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spinForProfile(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin, total int64
	for _, s := range samples {
		total += s.cpuNS
		if slices.ContainsFunc(s.stack, func(fn string) bool { return strings.HasSuffix(fn, ".spinForProfile") }) {
			spin += s.cpuNS
			if l := layerOf(s.stack); l != "client" {
				t.Errorf("spin sample %v attributed to %s, want client", s.stack, l)
			}
		}
	}
	if spin < 100*int64(time.Millisecond) || spin > total {
		t.Fatalf("spin CPU %v of %v total in %d samples, want at least 100ms", time.Duration(spin), time.Duration(total), len(samples))
	}
	byLayer := attribute(samples)
	if len(byLayer) != len(layers) {
		t.Errorf("attribute returned %d layers, want %d", len(byLayer), len(layers))
	}
	var sum int64
	for _, v := range byLayer {
		sum += v
	}
	if sum != total {
		t.Errorf("layers sum to %d ns, samples to %d", sum, total)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parsed garbage")
	}
}
