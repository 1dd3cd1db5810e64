package figures

import (
	"repro/internal/cluster"
	"repro/internal/osd"
	"repro/internal/store"
	"repro/internal/workload"
)

// backendPanels are the workloads where the two backends' write paths
// differ most: small random writes (deferred WAL vs journal double-write),
// threshold-straddling 32K writes, large sequential writes (direct single
// write vs double-write), and a mixed pattern.
var backendPanels = []struct {
	Name    string
	Pattern workload.Pattern
	BS      int64
	ReadPct int
	Depth   int
}{
	{"4K-randwrite", workload.RandWrite, 4096, 0, 8},
	{"32K-randwrite", workload.RandWrite, 32768, 0, 8},
	{"seq-write", workload.SeqWrite, 1 << 20, 0, 4},
	{"4K-randrw70", workload.RandRW, 4096, 70, 8},
}

// runBackendPoint runs one fleet on a fresh cluster and returns both the
// workload result and the cluster, whose device traffic the
// write-amplification columns need. The caller closes the cluster.
func runBackendPoint(p cluster.Params, vms int, spec workload.Spec) (workload.Result, *cluster.Cluster) {
	c := cluster.New(p)
	f := workload.VMFleet(c, vms, 512<<20, spec)
	res := f.Run(c.K)
	noteSim(c.K)
	return res, c
}

func deviceWriteBytes(c *cluster.Cluster) (journal, data uint64) {
	for _, nv := range c.NVRAMs() {
		journal += nv.Stats().BytesWritten.Value()
	}
	for i := range c.OSDs() {
		data += c.DataDevice(i).Stats().BytesWritten.Value()
	}
	return journal, data
}

// Backends compares the journal+filestore backend against the direct-write
// (BlueStore-style) backend at matched load: throughput, latency, and the
// host-level write amplification — total device bytes (journal NVRAM +
// data arrays) per byte of replicated client write traffic. The direct
// backend eliminates the journal's full-payload double write: large writes
// go to the data device once with a metadata-only KV commit, and small
// writes ride a KV WAL on the data device instead of the journal ring.
// panels restricts the figure to the named panels (nil = all).
func Backends(opt Options, panels []string) Report {
	rep := Report{
		Title:  "backend comparison: journal+filestore vs direct-write (AFCeph tuning, sustained)",
		Header: []string{"workload", "backend", "iops", "lat(ms)", "journal-MB", "data-MB", "write-amp"},
	}
	want := map[string]bool{}
	for _, p := range panels {
		want[p] = true
	}
	backends := []string{store.BackendFileStore, store.BackendDirectStore}
	type bkCell struct {
		panel   int
		backend string
	}
	var cells []bkCell
	for pi, pn := range backendPanels {
		if len(want) > 0 && !want[pn.Name] {
			continue
		}
		for _, backend := range backends {
			cells = append(cells, bkCell{panel: pi, backend: backend})
		}
	}
	rows := parallelPoints(opt.Workers, len(cells), func(i int) []string {
		pn, backend := backendPanels[cells[i].panel], cells[i].backend
		vms, depth := opt.scaleLoad(20, pn.Depth)
		spec := workload.Spec{
			Pattern:   pn.Pattern,
			BlockSize: pn.BS,
			ReadPct:   pn.ReadPct,
			IODepth:   depth,
			Runtime:   opt.runtime(),
			Ramp:      opt.rampWrite(),
			Seed:      opt.Seed,
		}
		p := withJournal(profileParams(opt, osd.AFCeph(), true), opt.JournalMB)
		p.OSD.Backend = backend
		res, c := runBackendPoint(p, vms, spec)
		defer c.Close()
		jbytes, dbytes := deviceWriteBytes(c)
		// Replicated client write bytes: every primary and replica write
		// op carries one BlockSize payload to its OSD.
		var logical uint64
		for _, o := range c.OSDs() {
			logical += (o.Metrics().WriteOps.Value() + o.Metrics().RepOps.Value()) * uint64(pn.BS)
		}
		amp := 0.0
		if logical > 0 {
			amp = float64(jbytes+dbytes) / float64(logical)
		}
		return []string{
			pn.Name, backend,
			f0(res.IOPS), f1(res.Lat.Mean),
			f1(float64(jbytes) / (1 << 20)), f1(float64(dbytes) / (1 << 20)),
			f2(amp),
		}
	})
	rep.Rows = append(rep.Rows, rows...)
	rep.Notes = append(rep.Notes,
		"write-amp = (journal NVRAM bytes + data-array bytes) / replicated client write bytes;",
		"the direct backend zeroes the journal column and drops large-write amplification toward 1x,",
		"at the cost of KV-WAL traffic on the data device for sub-threshold writes.")
	return rep
}
