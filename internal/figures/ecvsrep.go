package figures

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/osd"
	"repro/internal/store"
	"repro/internal/workload"
)

// ecvsrepPools are the two redundancy policies the figure compares at
// matched durability budgets: 3-way replication (tolerates 2 lost copies)
// and RS(4,2) erasure coding (tolerates 2 lost shards at half the space).
var ecvsrepPools = []struct {
	Name string
	Pool string
}{
	{"rep3", "rep3"},
	{"ec4+2", "ec4+2"},
}

// ECvsRep quantifies the redundancy-policy trade on both store backends:
// client throughput and latency for 4K random writes, the host-level write
// amplification per byte of *client* traffic (so the policy fan-out shows
// up directly: ~3x replicated payloads vs 6 quarter-size shards), the
// storage overhead, the CPU cost per thousand client ops (the parity
// encode tax), and the read latency when one OSD is failed out — replica
// reads fail over to another full copy while EC reads reconstruct from
// k of the surviving shards.
func ECvsRep(opt Options) Report {
	rep := Report{
		Title: "redundancy policy: 3x replication vs RS(4,2) erasure coding (AFCeph tuning)",
		Header: []string{"pool", "backend", "iops", "lat(ms)",
			"write-amp", "space", "cpu-ms/kop", "deg-lat(ms)"},
	}
	backends := []string{store.BackendFileStore, store.BackendDirectStore}
	type cell struct {
		pool    int
		backend string
	}
	var cells []cell
	for pi := range ecvsrepPools {
		for _, backend := range backends {
			cells = append(cells, cell{pool: pi, backend: backend})
		}
	}
	rows := parallelPoints(opt.Workers, len(cells), func(i int) []string {
		pool, backend := ecvsrepPools[cells[i].pool], cells[i].backend
		vms, depth := opt.scaleLoad(16, 8)
		mkParams := func() cluster.Params {
			p := withJournal(profileParams(opt, osd.AFCeph(), true), opt.JournalMB)
			p.OSD.Backend = backend
			p.Pool = pool.Pool
			return p
		}

		// Write phase: sustained 4K random writes on a fresh cluster.
		wspec := workload.Spec{
			Pattern:   workload.RandWrite,
			BlockSize: 4096,
			IODepth:   depth,
			Runtime:   opt.runtime(),
			Ramp:      opt.rampWrite(),
			Seed:      opt.Seed,
		}
		wc := cluster.New(mkParams())
		defer wc.Close()
		wres := workload.VMFleet(wc, vms, 512<<20, wspec).Run(wc.K)
		noteSim(wc.K)
		jbytes, dbytes := deviceWriteBytes(wc)
		logical := float64(wres.Ops) * float64(wspec.BlockSize)
		amp := 0.0
		if logical > 0 {
			amp = float64(jbytes+dbytes) / logical
		}
		var busy uint64
		for _, n := range wc.Nodes() {
			busy += n.BusyNanos()
		}
		cpuPerKop := 0.0
		if wres.Ops > 0 {
			cpuPerKop = float64(busy) / 1e6 / float64(wres.Ops) * 1000
		}

		// Degraded-read phase: a fresh cluster is prefilled, one OSD is
		// failed out without recovery, and the fleet reads through the hole.
		rspec := wspec
		rspec.Pattern = workload.RandRead
		rspec.Ramp = opt.ramp()
		rc := cluster.New(mkParams())
		defer rc.Close()
		rf := workload.VMFleet(rc, vms, 512<<20, rspec)
		rf.Prefill(rc.K, rspec.BlockSize, cluster.ObjectSize)
		rc.FailOSD(0)
		rres := rf.Run(rc.K)
		noteSim(rc.K)

		return []string{
			pool.Name, backend,
			f0(wres.IOPS), f2(wres.Lat.Mean),
			f2(amp), f2(wc.Policy().StorageOverhead()),
			f2(cpuPerKop), f2(rres.Lat.Mean),
		}
	})
	rep.Rows = append(rep.Rows, rows...)
	rep.Notes = append(rep.Notes,
		"write-amp = (journal NVRAM bytes + data-array bytes) / client write bytes, so the redundancy",
		fmt.Sprintf("fan-out is included: rep3 ships 3 full payloads, RS(4,2) ships %d quarter-size shards;", 6),
		"space is the policy's storage overhead (stored bytes per logical byte);",
		"cpu-ms/kop includes the RS(4,2) parity-encode charge on every write;",
		"deg-lat is mean read latency with one OSD failed out and not recovered — replica reads",
		"fail over to a surviving full copy, EC reads gather and reconstruct from k shards.")
	return rep
}
