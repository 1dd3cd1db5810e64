package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cpumodel"
	"repro/internal/crush"
	"repro/internal/device"
	"repro/internal/filestore"
	"repro/internal/journal"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// A layer driver calls one layer's public function n times on a fresh
// instance (its own kernel where the layer needs one) and returns the wall
// time of the calls alone, set-up excluded.
type layerDriver struct {
	name  string
	calls int // calls per round in a full run
	run   func(n int) time.Duration
}

// driverRounds is how many timed rounds each driver runs; the reported
// value is the median round's ns per call.
const driverRounds = 5

var layerDrivers = []layerDriver{
	{"layer.sim.event_ns", 400_000, simEvent},
	{"layer.sim.handoff_ns", 50_000, simHandoff},
	{"layer.sim.mutex_ns", 50_000, simMutex},
	{"layer.netsim.send4k_ns", 20_000, netsimSend},
	{"layer.device.ssd_write4k_ns", 50_000, func(n int) time.Duration { return ssdIO(n, true) }},
	{"layer.device.ssd_read4k_ns", 50_000, func(n int) time.Duration { return ssdIO(n, false) }},
	{"layer.journal.submit4k_ns", 50_000, journalSubmit},
	{"layer.kvstore.apply_ns", 20_000, kvApply},
	{"layer.filestore.apply4k_ns", 20_000, filestoreApply},
	{"layer.crush.pg_to_osds_ns", 400_000, crushPlace},
	{"layer.stats.hist_record_ns", 2_000_000, histRecord},
}

// measureDriver returns the median ns per call over rounds of n calls.
func measureDriver(d layerDriver, n, rounds int) float64 {
	per := make([]float64, rounds)
	for i := range per {
		per[i] = float64(d.run(n).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// timeRun times k.Run(sim.Forever) over the work already spawned on k.
func timeRun(k *sim.Kernel) time.Duration {
	t := time.Now()
	k.Run(sim.Forever)
	return time.Since(t)
}

// simEvent: one AfterCall callback event, each scheduling the next.
func simEvent(n int) time.Duration {
	k := sim.NewKernel()
	left := n
	var tick func(any)
	tick = func(any) {
		if left--; left > 0 {
			k.AfterCall(sim.Nanosecond, tick, nil)
		}
	}
	k.AfterCall(sim.Nanosecond, tick, nil)
	return timeRun(k)
}

// simHandoff: one Queue item pushed by a producer proc and popped by a
// consumer proc; each item switches procs twice.
func simHandoff(n int) time.Duration {
	k := sim.NewKernel()
	q := sim.NewQueue[int](k, "q", 0)
	k.Go("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Push(p, i)
			p.Sleep(sim.Nanosecond)
		}
	})
	k.Go("consumer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Pop(p)
		}
	})
	return timeRun(k)
}

// simMutex: one acquisition of a sim.Mutex that two procs contend for,
// each holding it across a 1 ns sleep.
func simMutex(n int) time.Duration {
	k := sim.NewKernel()
	m := sim.NewMutex(k, "m")
	for w := 0; w < 2; w++ {
		calls := n / 2
		if w == 0 {
			calls = n - n/2
		}
		k.Go(fmt.Sprintf("locker%d", w), func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				m.Lock(p)
				p.Sleep(sim.Nanosecond)
				m.Unlock(p)
			}
		})
	}
	return timeRun(k)
}

// netsimSend: one 4 KiB message from Send to the receiver's handler, paced
// so the receive queue stays short.
func netsimSend(n int) time.Duration {
	k := sim.NewKernel()
	net := netsim.New(k, netsim.DefaultParams())
	node := cpumodel.NewNode(k, "node", 16, cpumodel.JEMalloc)
	a := net.NewEndpoint("a", node, true)
	b := net.NewEndpoint("b", node, true)
	b.SetHandler(func(*sim.Proc, *netsim.Message) {})
	k.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.Send(p, b, 4096, 1, nil)
			p.Sleep(50 * sim.Microsecond)
		}
	})
	return timeRun(k)
}

// ssdIO: one 4 KiB random read or write on a sustained-state SSD.
func ssdIO(n int, write bool) time.Duration {
	k := sim.NewKernel()
	d := device.NewSSD(k, "ssd", device.DefaultSSDParams(), rng.New(1))
	d.SetSustained(true)
	r := rng.New(2)
	k.Go("io", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			off := r.Int63n(1<<36) &^ 4095
			if write {
				d.Write(p, off, 4096)
			} else {
				d.Read(p, off, 4096)
			}
		}
	})
	return timeRun(k)
}

// journalSubmit: one 4 KiB entry submitted to an NVRAM journal and trimmed.
func journalSubmit(n int) time.Duration {
	k := sim.NewKernel()
	j := journal.New(k, "journal", device.NewNVRAM(k, "nvram", device.DefaultNVRAMParams()), 64<<20)
	k.Go("submitter", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			j.Trim(j.Submit(p, 4096))
		}
	})
	return timeRun(k)
}

// kvKeys returns n distinct keys with the given prefix.
func kvKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s.%06d", prefix, i)
	}
	return keys
}

func newKV(k *sim.Kernel) (*kvstore.DB, *cpumodel.Node) {
	node := cpumodel.NewNode(k, "node", 16, cpumodel.JEMalloc)
	dev := device.NewNVRAM(k, "nvram", device.DefaultNVRAMParams())
	return kvstore.New(k, "db", dev, node, kvstore.DefaultParams()), node
}

// kvApply: one two-op batch (a PG log entry and an omap update), the shape
// of a light-weight write transaction's KV work.
func kvApply(n int) time.Duration {
	k := sim.NewKernel()
	db, _ := newKV(k)
	logKeys, omapKeys := kvKeys("pglog", 1024), kvKeys("omap", 256)
	logVal, omapVal := make([]byte, 180), make([]byte, 64)
	k.Go("writer", func(p *sim.Proc) {
		ops := make([]kvstore.Op, 2)
		for i := 0; i < n; i++ {
			ops[0] = kvstore.Op{Key: logKeys[i%len(logKeys)], Value: logVal}
			ops[1] = kvstore.Op{Key: omapKeys[i%len(omapKeys)], Value: omapVal}
			db.Apply(p, ops)
		}
	})
	return timeRun(k)
}

// filestoreApply: one 4 KiB light-weight write transaction on an SSD.
func filestoreApply(n int) time.Duration {
	k := sim.NewKernel()
	db, node := newKV(k)
	ssd := device.NewSSD(k, "ssd", device.DefaultSSDParams(), rng.New(1))
	fs := filestore.New(k, "fs", ssd, db, node, filestore.LightConfig(), rng.New(2))
	oids, logKeys := kvKeys("obj", 256), kvKeys("pglog", 1024)
	logVal, omapVal := make([]byte, 180), make([]byte, 64)
	k.Go("applier", func(p *sim.Proc) {
		tx := &filestore.Transaction{Len: 4096, PGLogValue: logVal, OmapOps: make([]kvstore.Op, 1)}
		for i := 0; i < n; i++ {
			tx.OID = oids[i%len(oids)]
			tx.Off = int64(i%1024) * 4096
			tx.PGLogKey = logKeys[i%len(logKeys)]
			tx.OmapOps[0] = kvstore.Op{Key: tx.OID + ".info", Value: omapVal}
			fs.Apply(p, tx)
		}
	})
	return timeRun(k)
}

// crushPlace: one 2-way placement on the benchmark's 4-host x 4-OSD map.
func crushPlace(n int) time.Duration {
	var hosts []crush.Host
	for h := 0; h < 4; h++ {
		host := crush.Host{Name: fmt.Sprintf("node%d", h)}
		for o := 0; o < 4; o++ {
			host.OSDs = append(host.OSDs, crush.OSDInfo{ID: h*4 + o, Weight: 1})
		}
		hosts = append(hosts, host)
	}
	m, err := crush.NewMap(hosts)
	if err != nil {
		panic(err) // a fixed, valid map
	}
	t := time.Now()
	for i := 0; i < n; i++ {
		m.PGToOSDs(uint32(i)%1024, 2)
	}
	return time.Since(t)
}

// histRecord: one latency sample recorded into a histogram.
func histRecord(n int) time.Duration {
	h := stats.NewHistogram()
	t := time.Now()
	for i := 0; i < n; i++ {
		h.Record(int64(i%4096) * 997)
	}
	return time.Since(t)
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs is left unchanged.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
