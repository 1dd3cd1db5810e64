package afceph

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func miniConfig(t Tuning) Config {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.OSDsPerNode = 2
	cfg.SSDsPerOSD = 2
	cfg.PGs = 128
	cfg.Sustained = false
	cfg.Verify = true
	cfg.Tuning = t
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bogus := DefaultConfig()
	bogus.Pool = "bogus"
	if err := bogus.Validate(); err == nil {
		t.Fatal("pool \"bogus\" accepted")
	}
	wide := DefaultConfig()
	wide.Nodes = 1
	wide.Pool = "ec4+2"
	if err := wide.Validate(); err == nil {
		t.Fatal("6-wide pool accepted on 4 OSDs")
	}
	backend := DefaultConfig()
	backend.Backend = "bogus"
	if err := backend.Validate(); err == nil {
		t.Fatal("backend \"bogus\" accepted")
	}
}

func TestScriptedWriteRead(t *testing.T) {
	c := New(miniConfig(AFCeph()))
	var stamp uint64
	var exists bool
	c.Run(func(ctx *Ctx) {
		d := ctx.OpenDevice("img", 64<<20)
		d.Write(ctx, 0, 4096, 1234)
		stamp, exists = d.Read(ctx, 0, 4096)
		if d.Size() != 64<<20 {
			t.Error("size wrong")
		}
	})
	if !exists || stamp != 1234 {
		t.Fatalf("stamp=%d exists=%v", stamp, exists)
	}
}

func TestScriptedClock(t *testing.T) {
	c := New(miniConfig(AFCeph()))
	var before, after float64
	c.Run(func(ctx *Ctx) {
		before = ctx.NowMs()
		ctx.SleepMs(25)
		after = ctx.NowMs()
	})
	if after-before != 25 {
		t.Fatalf("slept %v ms, want 25", after-before)
	}
}

func TestRunParallel(t *testing.T) {
	c := New(miniConfig(AFCeph()))
	done := 0
	c.RunParallel(
		func(ctx *Ctx) {
			d := ctx.OpenDevice("a", 16<<20)
			d.Write(ctx, 0, 4096, 1)
			done++
		},
		func(ctx *Ctx) {
			d := ctx.OpenDevice("b", 16<<20)
			d.Write(ctx, 0, 4096, 2)
			done++
		},
	)
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
}

func TestRunFioBasics(t *testing.T) {
	c := New(miniConfig(AFCeph()))
	res, err := c.RunFio(FioSpec{
		Workload:   "randwrite",
		BlockSize:  4096,
		VMs:        2,
		IODepth:    4,
		ImageSize:  64 << 20,
		RuntimeSec: 0.4,
		RampSec:    0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.IOPS <= 0 || res.Ops == 0 || res.LatMeanMs <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if len(res.SeriesIOPS) == 0 || len(res.SeriesT) != len(res.SeriesIOPS) {
		t.Fatal("series missing")
	}
	if res.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestRunFioPrefillThenRead(t *testing.T) {
	c := New(miniConfig(AFCeph()))
	res, err := c.RunFio(FioSpec{
		Workload:   "randread",
		BlockSize:  4096,
		VMs:        2,
		IODepth:    4,
		ImageSize:  32 << 20,
		RuntimeSec: 0.3,
		RampSec:    0.05,
		Prefill:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.IOPS <= 0 {
		t.Fatal("no read throughput")
	}
}

func TestRunFioValidation(t *testing.T) {
	c := New(miniConfig(AFCeph()))
	if _, err := c.RunFio(FioSpec{Workload: "bogus", BlockSize: 4096, VMs: 1, IODepth: 1}); err == nil {
		t.Fatal("bogus workload accepted")
	}
	if _, err := c.RunFio(FioSpec{Workload: "randwrite"}); err == nil {
		t.Fatal("zero-value spec accepted")
	}
}

func TestStatsPopulated(t *testing.T) {
	c := New(miniConfig(Community()))
	_, err := c.RunFio(FioSpec{
		Workload:   "randwrite",
		BlockSize:  4096,
		VMs:        2,
		IODepth:    4,
		ImageSize:  32 << 20,
		RuntimeSec: 0.3,
		RampSec:    0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.OSDWriteOps == 0 {
		t.Fatal("no writes recorded")
	}
	if len(st.CPUUtil) != 2 {
		t.Fatalf("CPU util entries = %d", len(st.CPUUtil))
	}
}

func TestSeedsReproducible(t *testing.T) {
	run := func() FioResult {
		c := New(miniConfig(AFCeph()))
		res, err := c.RunFio(FioSpec{
			Workload:   "randwrite",
			BlockSize:  4096,
			VMs:        2,
			IODepth:    2,
			ImageSize:  32 << 20,
			RuntimeSec: 0.3,
			RampSec:    0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Ops != b.Ops || a.IOPS != b.IOPS || a.LatMeanMs != b.LatMeanMs {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestDefaultConfigMatchesPaperTestbed(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != 4 || cfg.OSDsPerNode != 4 {
		t.Fatal("default testbed drifted from the paper's Figure 8")
	}
	// An empty Pool, like every zero field of Config, keeps the default.
	if w := New(cfg).Internal().PoolWidth(); cfg.Pool != "" || w != 2 {
		t.Fatalf("default pool %q is %d wide, want empty (rep2)", cfg.Pool, w)
	}
}

func TestTraceReport(t *testing.T) {
	cfg := miniConfig(Community())
	cfg.TraceSample = 5
	c := New(cfg)
	if _, err := c.RunFio(FioSpec{
		Workload: "randwrite", BlockSize: 4096, VMs: 2, IODepth: 4,
		ImageSize: 32 << 20, RuntimeSec: 0.3, RampSec: 0.05,
	}); err != nil {
		t.Fatal(err)
	}
	rep := c.TraceReport()
	for _, want := range []string{"acked", "journal-written", "samples"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("trace report missing %q:\n%s", want, rep)
		}
	}
}

func TestTraceReportEmpty(t *testing.T) {
	c := New(miniConfig(AFCeph()))
	if rep := c.TraceReport(); !strings.Contains(rep, "no traces") {
		t.Fatalf("empty trace report = %q", rep)
	}
	if c.Breakdown() != nil {
		t.Fatal("breakdown rows without tracing")
	}
	if tbl := c.BreakdownTable(); !strings.Contains(tbl, "no traces") {
		t.Fatalf("empty breakdown table = %q", tbl)
	}
}

func TestBreakdownAndPerfDump(t *testing.T) {
	cfg := miniConfig(AFCeph())
	cfg.TraceSample = 5
	c := New(cfg)
	if _, err := c.RunFio(FioSpec{
		Workload: "randwrite", BlockSize: 4096, VMs: 2, IODepth: 4,
		ImageSize: 32 << 20, RuntimeSec: 0.3, RampSec: 0.05,
	}); err != nil {
		t.Fatal(err)
	}

	rows := c.Breakdown()
	if len(rows) == 0 || rows[len(rows)-1].Label != "end-to-end" {
		t.Fatalf("breakdown rows = %+v", rows)
	}
	var meanSum float64
	for _, r := range rows[:len(rows)-1] {
		meanSum += r.Mean
	}
	e2e := rows[len(rows)-1].Mean
	if math.Abs(meanSum-e2e) > 1e-9*math.Max(meanSum, e2e) {
		t.Fatalf("segment means sum %.9f != end-to-end %.9f", meanSum, e2e)
	}
	tbl := c.BreakdownTable()
	for _, want := range []string{"segment", "journal", "replica-wait", "end-to-end"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("breakdown table missing %q:\n%s", want, tbl)
		}
	}
	if csvOut := c.BreakdownCSV(); !strings.HasPrefix(csvOut, "segment,count,") {
		t.Fatalf("breakdown CSV header = %q", csvOut)
	}

	var dump map[string]map[string]any
	if err := json.Unmarshal([]byte(c.PerfDump()), &dump); err != nil {
		t.Fatalf("perf dump is not valid JSON: %v", err)
	}
	for _, sub := range []string{"net", "cpu", "osd.0", "osd.0.journal", "osd.0.filestore", "osd.0.kv", "osd.0.log"} {
		if _, ok := dump[sub]; !ok {
			t.Fatalf("perf dump missing subsystem %q", sub)
		}
	}
	if w, ok := dump["osd.0"]["write_ops"].(float64); !ok || w <= 0 {
		t.Fatalf("osd.0 write_ops = %v", dump["osd.0"]["write_ops"])
	}
	if c.PerfDump() != c.PerfDump() {
		t.Fatal("perf dump not deterministic across calls")
	}
}
