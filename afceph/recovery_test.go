package afceph

import (
	"strings"
	"testing"
)

func TestFailRecoverScrubCycle(t *testing.T) {
	c := New(miniConfig(AFCeph()))
	c.Run(func(ctx *Ctx) {
		dev := ctx.OpenDevice("vol", 64<<20)
		for i := int64(0); i < 16; i++ {
			dev.Write(ctx, i*(4<<20), 4096, uint64(i+1))
		}
		ctx.SleepMs(2000)
	})
	if f := c.Scrub(); len(f) != 0 {
		t.Fatalf("baseline scrub dirty: %v", f[0])
	}

	c.FailOSD(0)
	if !c.OSDDown(0) {
		t.Fatal("not marked down")
	}
	c.Run(func(ctx *Ctx) {
		dev := ctx.OpenDevice("vol", 64<<20)
		for i := int64(0); i < 16; i++ {
			dev.Write(ctx, i*(4<<20), 4096, uint64(100+i))
		}
		ctx.SleepMs(2000)
	})
	rep := c.RecoverOSD(0)
	if c.OSDDown(0) {
		t.Fatal("still down after recovery")
	}
	if rep.ObjectsCopied == 0 || rep.PGsRecovered == 0 {
		t.Fatalf("empty recovery: %+v", rep)
	}
	if !strings.Contains(rep.String(), "recovered") {
		t.Fatal("report string empty")
	}
	if f := c.Scrub(); len(f) != 0 {
		t.Fatalf("scrub dirty after recovery: %v", f[0])
	}
}

func TestNumOSDs(t *testing.T) {
	c := New(miniConfig(Community()))
	if n := len(c.inner.OSDs()); n != 4 {
		t.Fatalf("NumOSDs = %d", n)
	}
}

func TestCrashRestartRecoverViaFacade(t *testing.T) {
	cfg := miniConfig(AFCeph())
	cfg.OpTimeoutMs = 50
	cfg.HeartbeatMs = 25
	cfg.HeartbeatGraceMs = 100
	c := New(cfg)

	var retried bool
	c.RunParallel(
		func(ctx *Ctx) {
			dev := ctx.OpenDevice("vol", 64<<20)
			for i := int64(0); i < 40; i++ {
				dev.Write(ctx, i*(1<<20), 4096, uint64(i+1))
				ctx.SleepMs(2)
			}
			ctx.SleepMs(2000) // settle applies
			ctx.RestartOSD(1)
			rep := ctx.RecoverOSD(1)
			if rep.JournalReplays == 0 && rep.DegradedPGs == 0 {
				t.Errorf("recovery saw no crash effects: %+v", rep)
			}
			if !strings.Contains(rep.String(), "journal replays") {
				t.Errorf("report string missing replay count: %s", rep)
			}
			for i := int64(0); i < 40; i++ {
				stamp, ok := dev.Read(ctx, i*(1<<20), 4096)
				if !ok || stamp != uint64(i+1) {
					t.Errorf("off %d: stamp=%d ok=%v, want %d", i*(1<<20), stamp, ok, i+1)
				}
			}
			ctx.StopHeartbeats()
		},
		func(ctx *Ctx) {
			ctx.SleepMs(15)
			ctx.c.inner.CrashOSD(1) // crash mid-workload; clients must retry
			retried = true
		},
	)
	if !retried {
		t.Fatal("driver script never ran")
	}
	if f := c.Scrub(); len(f) != 0 {
		t.Fatalf("scrub dirty after crash cycle: %v", f[0])
	}
}

func TestHeartbeatDetectionViaFacade(t *testing.T) {
	cfg := miniConfig(AFCeph())
	cfg.OpTimeoutMs = 50
	cfg.HeartbeatMs = 5
	cfg.HeartbeatGraceMs = 20
	c := New(cfg)

	var down bool
	c.Run(func(ctx *Ctx) {
		ctx.SleepMs(10)
		c.Internal().OSDs()[2].Crash() // silent: only heartbeats can notice
		ctx.SleepMs(60)
		down = ctx.c.inner.Down(2)
		ctx.StopHeartbeats()
	})
	if !down {
		t.Fatal("heartbeats never marked the crashed OSD down")
	}
	if c.DownsDetected() != 1 {
		t.Fatalf("DownsDetected = %d, want 1", c.DownsDetected())
	}
}
