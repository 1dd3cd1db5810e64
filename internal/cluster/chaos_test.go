package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/crush"
	"repro/internal/osd"
	"repro/internal/sim"
	"repro/internal/store"
)

// Targeted fault-injection tests: each exercises one leg of the chaos layer
// (crash-consistent restart, heartbeat detection, client retry, partition
// ride-through, corruption repair) in isolation. The end-to-end thrasher
// that combines them lives in internal/qa.

func TestCrashRestartReplaysJournal(t *testing.T) {
	p := smallParams(osd.AFCeph().Config())
	p.ClientOpTimeout = 50 * sim.Millisecond
	c := New(p)
	cl := c.NewClient()
	bd := cl.OpenDevice("img", 64<<20)

	// Crash osd.1 while the write stream is mid-flight: acked writes are in
	// the journal but not all applied, in-flight ops are lost and must be
	// retried by the client. A slow data device keeps a journal backlog so
	// the crash is guaranteed to strand journaled-but-unapplied entries.
	c.DiskFaults(1).SetSlow(50)
	const ops = 60
	c.K.Go("io", func(pp *sim.Proc) {
		for j := 0; j < ops; j++ {
			bd.WriteAt(pp, batchOffset(bd, 0, j), 4096, 1+uint64(j))
		}
	})
	c.K.Go("driver", func(pp *sim.Proc) {
		pp.Sleep(15 * sim.Millisecond)
		c.CrashOSD(1)
		c.DiskFaults(1).Clear()
	})
	c.K.Run(sim.Forever)

	if got := c.OSDs()[1].Metrics().Crashes.Value(); got != 1 {
		t.Fatalf("crash metric = %d, want 1", got)
	}
	replayed := c.RestartOSD(1)
	if replayed == 0 {
		t.Fatal("restart replayed nothing; crash landed after all applies (timing drifted?)")
	}
	st := c.RecoverOSD(1)
	if st.JournalReplays != replayed {
		t.Fatalf("RecoveryStats.JournalReplays = %d, want %d", st.JournalReplays, replayed)
	}
	if got := c.OSDs()[1].Metrics().JournalReplays.Value(); got != uint64(replayed) {
		t.Fatalf("osd replay metric = %d, want %d", got, replayed)
	}
	if st.DegradedPGs == 0 {
		t.Fatal("no PGs reported degraded across the outage")
	}

	// Every acked write must read back, whichever replica serves it.
	var bad []string
	c.K.Go("verify", func(pp *sim.Proc) {
		for j := 0; j < ops; j++ {
			off := batchOffset(bd, 0, j)
			got, ok := bd.ReadAt(pp, off, 4096)
			if !ok || got != 1+uint64(j) {
				bad = append(bad, fmt.Sprintf("off=%d got=%d want=%d ok=%v", off, got, 1+uint64(j), ok))
			}
		}
	})
	c.K.Run(sim.Forever)
	if len(bad) != 0 {
		t.Fatalf("acked writes lost across crash+restart: %v", bad)
	}
	if inc := c.ScrubAll(); len(inc) != 0 {
		t.Fatalf("scrub dirty after recovery: %+v", inc[0])
	}
	if v := c.ScrubPGLogs(); len(v) != 0 {
		t.Fatalf("pg log violations: %v", v)
	}
}

func TestHeartbeatDetectsSilentCrash(t *testing.T) {
	p := smallParams(osd.AFCeph().Config())
	p.HeartbeatInterval = 5 * sim.Millisecond
	p.HeartbeatGrace = 20 * sim.Millisecond
	c := New(p)

	var down bool
	var detected uint64
	c.K.Go("driver", func(pp *sim.Proc) {
		pp.Sleep(10 * sim.Millisecond)
		c.OSDs()[2].Crash() // silent: no FailOSD, no operator
		pp.Sleep(60 * sim.Millisecond)
		down = c.Down(2)
		detected = c.DownsDetected()
		c.StopHeartbeats()
	})
	c.K.Run(sim.Forever)

	if !down {
		t.Fatal("heartbeats never marked the crashed OSD down")
	}
	if detected != 1 {
		t.Fatalf("DownsDetected = %d, want 1 (one crash, one report acted on)", detected)
	}
	if c.epoch == 0 {
		t.Fatal("detection did not bump the map epoch")
	}
}

func TestHeartbeatIgnoresHealthyCluster(t *testing.T) {
	p := smallParams(osd.AFCeph().Config())
	p.HeartbeatInterval = 5 * sim.Millisecond
	p.HeartbeatGrace = 20 * sim.Millisecond
	c := New(p)
	c.K.Go("driver", func(pp *sim.Proc) {
		pp.Sleep(100 * sim.Millisecond)
		c.StopHeartbeats()
	})
	c.K.Run(sim.Forever)
	if got := c.DownsDetected(); got != 0 {
		t.Fatalf("false positives: DownsDetected = %d on a healthy cluster", got)
	}
	for id := range c.OSDs() {
		if c.Down(id) {
			t.Fatalf("osd.%d wrongly marked down", id)
		}
	}
}

func TestClientRetriesThroughSilentCrash(t *testing.T) {
	// The full loop with no operator: silent crash mid-workload, heartbeat
	// detection, client timeout/resend, restart + recovery, then readback.
	p := smallParams(osd.AFCeph().Config())
	p.ClientOpTimeout = 50 * sim.Millisecond
	p.HeartbeatInterval = 25 * sim.Millisecond
	p.HeartbeatGrace = 100 * sim.Millisecond
	c := New(p)
	cl := c.NewClient()
	bd := cl.OpenDevice("img", 64<<20)

	const ops = 80
	done := sim.NewWaitGroup(c.K)
	done.Add(1)
	c.K.Go("io", func(pp *sim.Proc) {
		defer done.Done()
		for j := 0; j < ops; j++ {
			bd.WriteAt(pp, batchOffset(bd, 0, j), 4096, 1+uint64(j))
			pp.Sleep(2 * sim.Millisecond)
		}
	})
	var detectedBeforeRecovery bool
	var bad []string
	c.K.Go("driver", func(pp *sim.Proc) {
		pp.Sleep(20 * sim.Millisecond)
		c.OSDs()[0].Crash() // silent
		done.Wait(pp)
		pp.Sleep(2 * sim.Second) // settle applies
		detectedBeforeRecovery = c.Down(0)
		c.RestartOSDIn(pp, 0)
		c.RecoverOSDIn(pp, 0)
		for j := 0; j < ops; j++ {
			off := batchOffset(bd, 0, j)
			got, ok := bd.ReadAt(pp, off, 4096)
			if !ok || got != 1+uint64(j) {
				bad = append(bad, fmt.Sprintf("off=%d got=%d want=%d ok=%v", off, got, 1+uint64(j), ok))
			}
		}
		c.StopHeartbeats()
	})
	c.K.Run(sim.Forever)

	if !detectedBeforeRecovery {
		t.Fatal("crash was never detected by heartbeats")
	}
	if cl.Retries() == 0 {
		t.Fatal("client completed all ops without a single retry; crash missed the workload")
	}
	if len(bad) != 0 {
		t.Fatalf("acked writes lost: %v", bad)
	}
	if inc := c.ScrubAll(); len(inc) != 0 {
		t.Fatalf("scrub dirty: %+v", inc[0])
	}
	if v := c.ScrubPGLogs(); len(v) != 0 {
		t.Fatalf("pg log violations: %v", v)
	}
}

func TestClientRidesOutPartition(t *testing.T) {
	p := smallParams(osd.AFCeph().Config())
	p.ClientOpTimeout = 50 * sim.Millisecond
	c := New(p)
	cl := c.NewClient()
	bd := cl.OpenDevice("img", 64<<20)

	const ops = 40
	c.K.Go("io", func(pp *sim.Proc) {
		for j := 0; j < ops; j++ {
			bd.WriteAt(pp, batchOffset(bd, 0, j), 4096, 1+uint64(j))
			pp.Sleep(2 * sim.Millisecond)
		}
		pp.Sleep(2 * sim.Second)
	})
	c.K.Go("driver", func(pp *sim.Proc) {
		pp.Sleep(10 * sim.Millisecond)
		for _, o := range c.OSDs() {
			c.Net.Partition(cl.Endpoint(), o.Endpoint())
		}
		pp.Sleep(120 * sim.Millisecond)
		for _, o := range c.OSDs() {
			c.Net.Heal(cl.Endpoint(), o.Endpoint())
		}
	})
	c.K.Run(sim.Forever)

	if c.Net.Dropped.Value() == 0 {
		t.Fatal("partition dropped nothing; window missed the workload")
	}
	if cl.Retries() == 0 {
		t.Fatal("no retries across the partition window")
	}
	var bad []string
	c.K.Go("verify", func(pp *sim.Proc) {
		for j := 0; j < ops; j++ {
			off := batchOffset(bd, 0, j)
			got, ok := bd.ReadAt(pp, off, 4096)
			if !ok || got != 1+uint64(j) {
				bad = append(bad, fmt.Sprintf("off=%d got=%d", off, got))
			}
		}
	})
	c.K.Run(sim.Forever)
	if len(bad) != 0 {
		t.Fatalf("writes lost across partition: %v", bad)
	}
	if inc := c.ScrubAll(); len(inc) != 0 {
		t.Fatalf("scrub dirty: %+v", inc[0])
	}
}

// TestRepairHealsCorruptedReplica runs against both backends: corruption,
// detection and repair all go through the object table both backends
// share, so the journal+filestore and direct-write paths must behave
// identically.
func TestRepairHealsCorruptedReplica(t *testing.T) {
	for _, backend := range []string{store.BackendFileStore, store.BackendDirectStore} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			p := smallParams(osd.AFCeph().Config())
			p.OSD.Backend = backend
			c := New(p)
			cl := c.NewClient()
			bd := cl.OpenDevice("img", 64<<20)
			writeBatch(c, bd, 0, 20, 1)

			// Flip bits on a non-primary replica of object 0 (written with
			// stamp 1 at offset 0 by the batch above).
			oid := "rbd.img.0"
			pg := crush.ObjectToPG(oid, c.Params.PGs)
			set := c.CrushSet(pg)
			victim := set[len(set)-1]
			if !c.OSDs()[victim].FileStore().CorruptObject(oid) {
				t.Fatalf("osd.%d holds no copy of %s", victim, oid)
			}
			if !c.OSDs()[victim].FileStore().ObjectDamaged(oid) {
				t.Fatal("CorruptObject did not flag the copy damaged")
			}

			inc := c.ScrubAll()
			found := false
			for _, i := range inc {
				if i.OID == oid && strings.Contains(i.Detail, fmt.Sprintf("checksum mismatch on osd.%d", victim)) {
					found = true
				}
			}
			if !found {
				t.Fatalf("deep scrub missed the corruption: %+v", inc)
			}

			if healed := c.Repair(); healed == 0 {
				t.Fatal("repair healed nothing")
			}
			if inc := c.ScrubAll(); len(inc) != 0 {
				t.Fatalf("scrub still dirty after repair: %+v", inc[0])
			}
			if c.OSDs()[victim].FileStore().ObjectDamaged(oid) {
				t.Fatal("repaired copy still flagged damaged")
			}

			// The healed copy must carry the original data, not the
			// scrambled bits.
			ref, _ := c.OSDs()[set[0]].FileStore().ExportObject(oid)
			got, ok := c.OSDs()[victim].FileStore().ExportObject(oid)
			if !ok || !sameStamps(ref.Stamps, got.Stamps) {
				t.Fatalf("healed copy diverges from primary: %+v vs %+v", got, ref)
			}
			if got.Stamps[0] != 1 {
				t.Fatalf("stamp at offset 0 = %d, want 1", got.Stamps[0])
			}
		})
	}
}
