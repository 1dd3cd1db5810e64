package osd

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/store"
)

// tapDev passes every request through to its device and reports each
// Submit to tap while the request is in flight. Read and Write are Submit
// plus Await, as on the devices themselves, so a tap adds no event.
type tapDev struct {
	device.Device
	tap func(io *device.IO)
}

func (d *tapDev) Submit(io *device.IO) {
	d.Device.Submit(io)
	if d.tap != nil {
		d.tap(io)
	}
}

func (d *tapDev) Read(p *sim.Proc, off, size int64) sim.Time { return d.wait(p, off, size, false) }

func (d *tapDev) Write(p *sim.Proc, off, size int64) sim.Time { return d.wait(p, off, size, true) }

func (d *tapDev) wait(p *sim.Proc, off, size int64, write bool) sim.Time {
	io := &device.IO{Done: sim.Wake, Arg: p, Off: off, Size: size, Write: write}
	d.Submit(io)
	p.Await()
	return io.Lat
}

// pairHarness is a primary OSD with one replica, both on tapped devices,
// and eight client endpoints recording when each write is acked.
type pairHarness struct {
	k           *sim.Kernel
	osds        [2]*OSD
	data, jrnl  [2]*tapDev
	clients     [8]*netsim.Endpoint
	ackAt       map[uint64]sim.Time
	crashedAt   sim.Time
	restartedAt sim.Time
}

func newPairHarness(cfg Config) *pairHarness {
	k := sim.NewKernel()
	net := netsim.New(k, netsim.DefaultParams())
	r := rng.New(3)
	h := &pairHarness{k: k, ackAt: make(map[uint64]sim.Time)}
	replies := &sim.FreeList[Reply]{}
	for i := range h.osds {
		node := cpumodel.NewNode(k, fmt.Sprintf("server%d", i), 4, cpumodel.JEMalloc)
		h.data[i] = &tapDev{Device: device.NewSSD(k, fmt.Sprintf("ssd%d", i), device.DefaultSSDParams(), r)}
		h.jrnl[i] = &tapDev{Device: device.NewNVRAM(k, fmt.Sprintf("nvram%d", i), device.DefaultNVRAMParams())}
		c := cfg
		c.ID = i
		c.FStore.VerifyData = true
		ep := net.NewEndpoint(fmt.Sprintf("osd%d", i), node, true)
		h.osds[i] = NewSplit(k, c, node, ep, ep, h.data[i], h.jrnl[i], r, replies)
	}
	pair := []*netsim.Endpoint{h.osds[0].ClusterEndpoint(), h.osds[1].ClusterEndpoint()}
	alone := []*netsim.Endpoint{h.osds[1].ClusterEndpoint()}
	h.osds[0].SetActingSet(fixedSet(pair, 0))
	h.osds[1].SetActingSet(fixedSet(alone, 0))
	clientNode := cpumodel.NewNode(k, "client", 16, cpumodel.JEMalloc)
	for i := range h.clients {
		h.clients[i] = net.NewEndpoint(fmt.Sprintf("client%d", i), clientNode, true)
		h.clients[i].SetReceiver(func(m *netsim.Message) {
			h.ackAt[m.Payload.(*Reply).Op.ID] = k.Now()
		})
	}
	return h
}

// drive has four clients each send 150 4 KiB writes to the primary, one
// every 100us, over 16 objects in 4 PGs. The other four send 50 each from
// 30ms on, on fresh connections: a crash leaves the first four's
// connections stalled behind messages the dead daemon held.
func (h *pairHarness) drive() {
	for c, client := range h.clients {
		c, client := c, client
		h.k.Go("client", func(p *sim.Proc) {
			n := 150
			if c >= 4 {
				n = 50
				p.Sleep(30 * sim.Millisecond)
			}
			for j := 0; j < n; j++ {
				id := uint64(c*1000 + j)
				obj := (c*7 + j) % 16
				op := &ClientOp{
					Kind: OpWrite, OID: fmt.Sprintf("obj%d", obj), PG: uint32(obj % 4),
					Off: int64(j%8) * 4096, Len: 4096, Stamp: id + 1, Client: client, ID: id,
				}
				client.Send(p, h.osds[0].Endpoint(), 4096+200, MsgWrite, op)
				p.Sleep(100 * sim.Microsecond)
			}
		})
	}
}

// crashOn crashes OSD i at the instant of the nth request its tap
// matches, while that request is in flight, and restarts it 3ms later.
func (h *pairHarness) crashOn(i int, dev *tapDev, n int, match func(io *device.IO) bool) {
	seen := 0
	dev.tap = func(io *device.IO) {
		if !match(io) {
			return
		}
		if seen++; seen != n {
			return
		}
		h.k.AfterCall(0, func(any) {
			h.crashedAt = h.k.Now()
			h.osds[i].Crash()
			h.k.Go("restart", func(p *sim.Proc) {
				p.Sleep(3 * sim.Millisecond)
				h.osds[i].Restart(p)
				h.restartedAt = p.Now()
			})
		}, nil)
	}
}

// fingerprint folds the ack times by op id, the kernel's event count and
// both OSDs' perf dumps (journal, KV, filestore, direct store, queue
// delays and lock statistics) into one value; detail is the readable form.
func (h *pairHarness) fingerprint() (acks int, sum uint64, detail string) {
	ids := make([]uint64, 0, len(h.ackAt))
	for id := range h.ackAt {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	hs := fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(hs, "%d@%d;", id, h.ackAt[id])
	}
	reg := metrics.NewRegistry()
	for _, o := range h.osds {
		o.RegisterMetrics(reg)
	}
	detail = fmt.Sprintf("dispatched=%d now=%d crash=%d restart=%d\n%s",
		h.k.Dispatched(), h.k.Now(), h.crashedAt, h.restartedAt, reg.DumpJSON())
	fmt.Fprint(hs, detail)
	return len(ids), hs.Sum64(), detail
}

// TestWritePathPinned pins the replicated write path on both backends
// and both profiles: the ack time of every write, the kernel's event
// count and every counter and delay histogram of both OSDs. Besides a
// clean run there is a tight one (a two-entry journal queue, a 48 KiB
// ring and a four-op filestore throttle, so pushes, ring space and
// throttle tokens are waited for), a primary crashed while a commit's
// write is in flight, and a replica crashed while an apply's data write
// is in flight; each crashed OSD restarts 3ms later and replays. The
// values were recorded with the journal writer, the filestore workers
// and the completion worker running as processes; only the event count
// has moved since, when the messenger's chain starts went inline.
func TestWritePathPinned(t *testing.T) {
	commitIO := func(backend string) func(h *pairHarness) {
		if backend == store.BackendDirectStore {
			// The commit point is the KV WAL write carrying the payload.
			return func(h *pairHarness) {
				h.crashOn(0, h.data[0], 40, func(io *device.IO) bool { return io.Write && io.Size > 4096 })
			}
		}
		return func(h *pairHarness) { h.crashOn(0, h.jrnl[0], 40, func(io *device.IO) bool { return io.Write }) }
	}
	applyIO := func(h *pairHarness) {
		h.crashOn(1, h.data[1], 80, func(io *device.IO) bool { return io.Write && io.Size == 4096 })
	}
	type pin struct {
		acks int
		sum  uint64
	}
	want := map[string]pin{
		"afceph/filestore/clean":                 {800, 0xedf087add51d5f08},
		"afceph/filestore/tight":                 {800, 0x830a37fc82a4fd88},
		"afceph/filestore/crash-mid-commit":      {520, 0x115109cda9d4a644},
		"afceph/filestore/crash-mid-apply":       {773, 0x369049d2a063c1e7},
		"afceph/directstore/clean":               {800, 0x1986133a4ba95eb7},
		"afceph/directstore/tight":               {800, 0x3fdd523469722365},
		"afceph/directstore/crash-mid-commit":    {449, 0xeffa9dfc89c0e9e7},
		"afceph/directstore/crash-mid-apply":     {772, 0x6df52d0bd2857c4f},
		"community/filestore/clean":              {800, 0x271e38dd7db29792},
		"community/filestore/tight":              {800, 0x5864a9401d85b9ba},
		"community/filestore/crash-mid-commit":   {200, 0xc7a054b40fcb5ea3},
		"community/filestore/crash-mid-apply":    {757, 0x716c5889ea4a3399},
		"community/directstore/clean":            {800, 0xdb670a88aff9c75b},
		"community/directstore/tight":            {800, 0xdb670a88aff9c75b},
		"community/directstore/crash-mid-commit": {200, 0x1e6d50d68a59915b},
		"community/directstore/crash-mid-apply":  {747, 0x2007cb653ad17ca3},
	}
	for _, profile := range []string{"afceph", "community"} {
		for _, backend := range []string{store.BackendFileStore, store.BackendDirectStore} {
			scenarios := []struct {
				name  string
				tight bool
				setup func(h *pairHarness)
			}{
				{"clean", false, nil},
				{"tight", true, nil},
				{"crash-mid-commit", false, commitIO(backend)},
				{"crash-mid-apply", false, applyIO},
			}
			for _, sc := range scenarios {
				name := profile + "/" + backend + "/" + sc.name
				t.Run(name, func(t *testing.T) {
					tn, _ := ProfileByName(profile)
					cfg := tn.Config()
					cfg.Backend = backend
					if sc.tight {
						cfg.journalQueueCap = 2
						cfg.JournalSize = 48 << 10
						cfg.Throttles.FilestoreQueueMaxOps = 4
					}
					h := newPairHarness(cfg)
					if sc.setup != nil {
						sc.setup(h)
					}
					h.drive()
					h.k.Run(2 * sim.Second)
					acks, sum, detail := h.fingerprint()
					if sc.setup != nil && (h.crashedAt == 0 || h.restartedAt == 0) {
						t.Fatalf("no crash and restart (crash %v, restart %v)", h.crashedAt, h.restartedAt)
					}
					if got, w := (pin{acks, sum}), want[name]; got != w {
						t.Fatalf("got %d acks, fingerprint %#x; want %d, %#x\n%s", got.acks, got.sum, w.acks, w.sum, detail)
					}
					for _, o := range h.osds {
						o.k.Close()
					}
				})
			}
		}
	}
}
