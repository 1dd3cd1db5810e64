// chaos walks through the fault-injection layer end to end: a cluster
// with heartbeats and client op timeouts runs a write workload while an
// OSD daemon is killed mid-flight — no FailOSD, no operator. The heartbeat
// monitor detects the silent crash and marks the OSD down, clients time
// out and resend to the acting primary, the restart replays the NVRAM
// journal so no acked write is lost, and recovery resynchronizes the
// rejoining OSD while the workload keeps running. The final readback and
// scrub prove crash consistency.
//
// The full randomized thrasher (crash cycles + partitions + disk faults
// over many seeds) lives in internal/qa and runs via `go test ./internal/qa`.
package main

import (
	"fmt"
	"log"

	"repro/afceph"
)

func main() {
	cfg := afceph.DefaultConfig()
	cfg.Nodes = 2
	cfg.OSDsPerNode = 2
	cfg.PGs = 128
	cfg.Verify = true
	cfg.Sustained = false
	// The robustness knobs: without OpTimeoutMs a client op addressed to a
	// crashed OSD would wait forever; without HeartbeatMs nobody would ever
	// mark it down.
	cfg.OpTimeoutMs = 50
	cfg.HeartbeatMs = 25
	cfg.HeartbeatGraceMs = 100
	c := afceph.New(cfg)

	const ops = 100
	var lost int
	c.RunParallel(
		// The workload: paced 4K writes, each stamped so it can be verified.
		func(ctx *afceph.Ctx) {
			dev := ctx.OpenDevice("vol", 128<<20)
			for i := int64(0); i < ops; i++ {
				dev.Write(ctx, i*(1<<20), 4096, uint64(i+1))
				if i >= 40 {
					ctx.SleepMs(2) // burst the start so the crash lands mid-backlog
				}
			}
			ctx.SleepMs(2000) // let filestore applies settle

			// Restart replays the journal; recovery rejoins the OSD.
			replays := ctx.RestartOSD(1)
			rep := ctx.RecoverOSD(1)
			fmt.Printf("restarted osd.1: %d journal entries replayed\n", replays)
			fmt.Println(rep)

			// Every acked write must read back its stamp.
			for i := int64(0); i < ops; i++ {
				stamp, ok := dev.Read(ctx, i*(1<<20), 4096)
				if !ok || stamp != uint64(i+1) {
					lost++
				}
			}
			ctx.StopHeartbeats()
		},
		// The fault: first degrade osd.1's data device (a failing disk
		// serving I/O at 1/50th speed — journaled writes back up behind the
		// slow applies), then kill the daemon 30ms in, while writes are in
		// flight. Cluster.CrashOSD would also tell the cluster map (an operator
		// watching the crash); killing the daemon directly is truly silent,
		// so only the heartbeat monitor can mark it down.
		func(ctx *afceph.Ctx) {
			c.Internal().DiskFaults(1).SetSlow(50)
			ctx.SleepMs(30)
			c.Internal().OSDs()[1].Crash()
			c.Internal().DiskFaults(1).Clear()
			fmt.Println("osd.1 crashed silently at t=30ms with a journal backlog")
		},
	)

	fmt.Printf("heartbeat monitor detected %d down OSD(s) without operator help\n",
		c.DownsDetected())
	if lost != 0 {
		log.Fatalf("%d acked writes lost", lost)
	}
	fmt.Printf("all %d acked writes survived the crash\n", ops)
	if f := c.Scrub(); len(f) != 0 {
		for _, s := range f {
			fmt.Println("  ", s)
		}
		log.Fatal("scrub found inconsistencies")
	}
	fmt.Println("scrub clean: crash-consistent recovery held")
}
