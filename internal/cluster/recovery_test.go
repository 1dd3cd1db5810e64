package cluster

import (
	"fmt"
	"testing"

	"repro/internal/osd"
	"repro/internal/sim"
)

// writeBatch writes `ops` 4K blocks striding one block per object so the
// workload touches every object (and thus every PG/OSD) of the image.
func writeBatch(c *Cluster, bd *BlockDevice, start, ops int, stamp uint64) {
	objects := bd.Img.Size / ObjectSize
	c.K.Go("batch", func(p *sim.Proc) {
		for j := 0; j < ops; j++ {
			obj := int64(start+j) % objects
			off := obj*ObjectSize + int64((start+j)/int(objects))*4096
			bd.WriteAt(p, off%bd.Img.Size, 4096, stamp+uint64(j))
		}
		p.Sleep(2 * sim.Second)
	})
	c.K.Run(sim.Forever)
}

// batchOffset mirrors writeBatch's offset schedule for verification.
func batchOffset(bd *BlockDevice, start, j int) int64 {
	objects := bd.Img.Size / ObjectSize
	obj := int64(start+j) % objects
	return (obj*ObjectSize + int64((start+j)/int(objects))*4096) % bd.Img.Size
}

func TestFailoverRoutesAroundDownOSD(t *testing.T) {
	c := New(smallParams(osd.AFCeph().Config()))
	cl := c.NewClient()
	bd := cl.OpenDevice("img", 64<<20)
	writeBatch(c, bd, 0, 20, 1)

	c.FailOSD(0)
	if !c.Down(0) {
		t.Fatal("FailOSD did not mark down")
	}
	before := c.OSDs()[0].Metrics().WriteOps.Value() + c.OSDs()[0].Metrics().RepOps.Value()
	writeBatch(c, bd, 100, 20, 1000)
	after := c.OSDs()[0].Metrics().WriteOps.Value() + c.OSDs()[0].Metrics().RepOps.Value()
	if after != before {
		t.Fatalf("down OSD received %d ops", after-before)
	}
	// Reads during the outage still work (served by the acting primary).
	var ok bool
	c.K.Go("r", func(p *sim.Proc) {
		_, ok = bd.ReadAt(p, 100*4096%bd.Img.Size, 4096)
	})
	c.K.Run(sim.Forever)
	if !ok {
		t.Fatal("degraded read failed")
	}
}

func TestRecoveryHealsScrub(t *testing.T) {
	for name, prof := range profiles() {
		t.Run(name, func(t *testing.T) {
			c := New(smallParams(prof))
			cl := c.NewClient()
			bd := cl.OpenDevice("img", 64<<20)
			writeBatch(c, bd, 0, 30, 1)

			c.FailOSD(1)
			writeBatch(c, bd, 0, 30, 500) // overwrite during outage: osd1 goes stale
			writeBatch(c, bd, 200, 20, 900)

			// The cluster is inconsistent while osd1 is down-stale.
			c.down = make([]bool, len(c.down)) // peek with all considered up
			dirty := len(c.ScrubAll())
			c.down[1] = true
			if dirty == 0 {
				t.Fatal("outage produced no divergence; test is vacuous")
			}

			st := c.RecoverOSD(1)
			if st.ObjectsCopied == 0 {
				t.Fatal("recovery copied nothing")
			}
			if st.Duration <= 0 {
				t.Fatal("recovery took no simulated time")
			}
			if inc := c.ScrubAll(); len(inc) != 0 {
				t.Fatalf("scrub still dirty after recovery: %+v", inc[0])
			}
			if v := c.ScrubPGLogs(); len(v) != 0 {
				t.Fatalf("pg log violations after recovery: %v", v)
			}
		})
	}
}

func TestRecoveryPreservesReadYourWrite(t *testing.T) {
	c := New(smallParams(osd.AFCeph().Config()))
	cl := c.NewClient()
	bd := cl.OpenDevice("img", 64<<20)
	writeBatch(c, bd, 0, 10, 1)

	c.FailOSD(2)
	writeBatch(c, bd, 0, 10, 777) // overwrites during outage
	c.RecoverOSD(2)

	// Every block must read back the outage-era stamp regardless of which
	// replica serves it.
	var bad []string
	c.K.Go("verify", func(p *sim.Proc) {
		for j := 0; j < 10; j++ {
			off := batchOffset(bd, 0, j)
			got, ok := bd.ReadAt(p, off, 4096)
			if !ok || got != 777+uint64(j) {
				bad = append(bad, fmt.Sprintf("off=%d got=%d want=%d", off, got, 777+uint64(j)))
			}
		}
	})
	c.K.Run(sim.Forever)
	if len(bad) != 0 {
		t.Fatalf("stale reads after recovery: %v", bad)
	}
}

func TestRecoveryUsesLogWhenCovered(t *testing.T) {
	// Few writes during a short outage: the peer's retained PG log (100
	// entries) covers the gap, so recovery should be log-based.
	c := New(smallParams(osd.AFCeph().Config()))
	cl := c.NewClient()
	bd := cl.OpenDevice("img", 64<<20)
	writeBatch(c, bd, 0, 20, 1)
	c.FailOSD(1)
	writeBatch(c, bd, 0, 10, 500)
	st := c.RecoverOSD(1)
	if st.PGsRecovered == 0 {
		t.Fatal("nothing recovered")
	}
	if st.LogRecoveries == 0 {
		t.Fatalf("expected log-based recovery, got %+v", st)
	}
}

func TestRecoveryWritesContinueCleanly(t *testing.T) {
	// After recovery the preferred primary resumes; sequencing must
	// continue without PG-log violations even across the ownership change.
	c := New(smallParams(osd.AFCeph().Config()))
	cl := c.NewClient()
	bd := cl.OpenDevice("img", 64<<20)
	writeBatch(c, bd, 0, 25, 1)
	c.FailOSD(0)
	writeBatch(c, bd, 0, 25, 300)
	c.RecoverOSD(0)
	writeBatch(c, bd, 0, 25, 600)
	if v := c.ScrubPGLogs(); len(v) != 0 {
		t.Fatalf("pg log violations: %v", v)
	}
	if inc := c.ScrubAll(); len(inc) != 0 {
		t.Fatalf("scrub dirty: %+v", inc[0])
	}
}

func TestEpochBumps(t *testing.T) {
	c := New(smallParams(osd.AFCeph().Config()))
	e0 := c.epoch
	c.FailOSD(3)
	c.RecoverOSD(3)
	if c.epoch != e0+2 {
		t.Fatalf("epoch = %d, want %d", c.epoch, e0+2)
	}
}

func TestRecoverIdempotentWhenNothingMissed(t *testing.T) {
	c := New(smallParams(osd.AFCeph().Config()))
	cl := c.NewClient()
	bd := cl.OpenDevice("img", 64<<20)
	writeBatch(c, bd, 0, 10, 1)
	c.FailOSD(1)
	// no writes during outage
	st := c.RecoverOSD(1)
	if st.ObjectsCopied != 0 {
		t.Fatalf("copied %d objects with nothing missed", st.ObjectsCopied)
	}
	if inc := c.ScrubAll(); len(inc) != 0 {
		t.Fatalf("scrub dirty: %+v", inc[0])
	}
}
