// Package solidfire models the commercial all-flash scale-out system the
// paper compares against (§4.4, §5). Its defining architectural choices,
// all of which the paper's results hinge on:
//
//   - Every write is chunked into fixed 4 KiB blocks that are content-
//     hashed for deduplication (mandatory); the hash determines placement,
//     so a client's sequential stream becomes cluster-random — the cause
//     of SolidFire's weak sequential performance.
//   - A metadata service sits on the data path (unlike Ceph's CRUSH).
//   - Writes are journaled to NVRAM and acked; dedup'd data moves to flash
//     asynchronously — strong 4 KiB random write latency.
//   - Non-4KiB I/O pays the chunking overhead (a 32 KiB request is eight
//     chunk operations that must all complete), matching the paper's
//     observation that performance drops "after non-4KB workload".
package solidfire

import (
	"fmt"

	"repro/internal/cpumodel"
	"repro/internal/device"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ChunkSize is the fixed dedup unit.
const ChunkSize int64 = 4096

// The modelled system: the paper's 4-node testbed.
const (
	nodes        = 4
	ssdsPerNode  = 10
	coresPerNode = 16
	// hashCPU is the per-chunk content-hash cost (SHA on 4 KiB).
	hashCPU = 80 * sim.Microsecond
	// metaCPU is the per-chunk metadata-service lookup/update cost.
	metaCPU = 120 * sim.Microsecond
	// chunkWriteCPU and chunkReadCPU are the per-chunk block-service costs.
	chunkWriteCPU = 300 * sim.Microsecond
	chunkReadCPU  = 100 * sim.Microsecond
	// metaReadProb is the probability a chunk read needs an extra metadata
	// fetch from flash.
	metaReadProb = 0.3
	seed         = 1
)

// Cluster is a running SolidFire-like system.
type Cluster struct {
	K *sim.Kernel

	prop    sim.Time // the fabric's propagation delay, each way
	nodes   []*node
	rnd     *rng.Rand
	clients int
	// Chunks counts chunk operations served.
	Chunks stats.Counter
}

type node struct {
	cpu   *cpumodel.Node
	flash *device.RAID0
	nvram *device.NVRAM
}

// New builds the cluster.
func New() *Cluster {
	k := sim.NewKernel()
	c := &Cluster{K: k, prop: netsim.DefaultParams().Propagation, rnd: rng.New(seed)}
	for n := 0; n < nodes; n++ {
		cpu := cpumodel.NewNode(k, fmt.Sprintf("sf%d", n), coresPerNode, cpumodel.JEMalloc)
		var members []device.Device
		for s := 0; s < ssdsPerNode; s++ {
			ssd := device.NewSSD(k, fmt.Sprintf("sf%d.ssd%d", n, s), device.DefaultSSDParams(), c.rnd)
			ssd.SetSustained(true) // dedup store is always "full" of content
			members = append(members, ssd)
		}
		c.nodes = append(c.nodes, &node{
			cpu:   cpu,
			flash: device.NewRAID0(k, fmt.Sprintf("sf%d.flash", n), 64<<10, members...),
			nvram: device.NewNVRAM(k, fmt.Sprintf("sf%d.nvram", n), device.DefaultNVRAMParams()),
		})
	}
	return c
}

// chunkNode places a chunk by its content hash (volume+offset+stamp stand
// in for content since data is fully random in the paper's test).
func (c *Cluster) chunkNode(vol uint64, off int64, stamp uint64) *node {
	h := (vol*0x9e3779b97f4a7c15 ^ uint64(off)*0xbf58476d1ce4e5b9 ^ stamp*0x94d049bb133111eb)
	h ^= h >> 29
	return c.nodes[h%uint64(len(c.nodes))]
}

// Volume is an iSCSI-style volume exposed by the cluster.
type Volume struct {
	c    *Cluster
	id   uint64
	size int64
	rnd  *rng.Rand
	// meta is the node acting as this volume's metadata service.
	meta *node
	// stamps records the most recent write stamp per chunk (the volume's
	// logical block map) so reads verify like the Ceph path.
	stamps map[int64]uint64
}

// NewVolume provisions a volume of the given size.
func (c *Cluster) NewVolume(size int64) *Volume {
	c.clients++
	return &Volume{
		c:      c,
		id:     uint64(c.clients),
		size:   size,
		rnd:    c.rnd.Fork(),
		meta:   c.nodes[c.clients%len(c.nodes)],
		stamps: make(map[int64]uint64),
	}
}

// Size returns the volume capacity.
func (v *Volume) Size() int64 { return v.size }

// chunkSpan returns the chunk-aligned offsets covering [off, off+size).
func chunkSpan(off, size int64) (first, count int64) {
	first = off / ChunkSize * ChunkSize
	end := off + size
	count = (end - first + ChunkSize - 1) / ChunkSize
	return first, count
}

// WriteAt writes through the SolidFire pipeline: per 4 KiB chunk — network
// to metadata service, hash, dedup lookup, NVRAM journal on the content
// node — acked when every chunk is durable. Chunks proceed in parallel.
func (v *Volume) WriteAt(p *sim.Proc, off, size int64, stamp uint64) {
	if off < 0 || off+size > v.size {
		panic("solidfire: write beyond volume")
	}
	first, count := chunkSpan(off, size)
	wg := sim.NewWaitGroup(v.c.K)
	for i := int64(0); i < count; i++ {
		i := i
		chunkOff := first + i*ChunkSize
		wg.Add(1)
		v.c.K.Go("sf.wchunk", func(cp *sim.Proc) {
			defer wg.Done()
			// Network + metadata service. Contiguous multi-chunk requests
			// amortize the metadata lookup (one block-map range covers
			// several chunks) and the block-service submission overhead —
			// only the content hash is inherently per-chunk.
			cp.Sleep(v.c.prop)
			// Only large streaming requests (>=32 chunks) amortize the
			// block-map lookups and submission overhead; small requests
			// (4K-64K) pay full per-chunk cost — the paper's observed drop
			// "after non-4KB workload".
			streaming := count >= 32
			if !streaming || i%8 == 0 {
				v.meta.cpu.UseWithAllocs(cp, metaCPU, 20)
			}
			writeCPU := chunkWriteCPU
			if streaming {
				writeCPU /= 4
			}
			target := v.c.chunkNode(v.id, chunkOff, stamp)
			target.cpu.UseWithAllocs(cp, hashCPU+writeCPU, 30)
			// NVRAM journal write, then async flash write (not awaited).
			target.nvram.Write(cp, chunkOff%(8<<30), ChunkSize)
			t := target
			v.c.K.Go("sf.flush", func(fp *sim.Proc) {
				t.flash.Write(fp, v.rnd.Int63n(1<<36)&^(ChunkSize-1), ChunkSize)
			})
			cp.Sleep(v.c.prop)
			v.c.Chunks.Inc()
		})
	}
	wg.Wait(p)
	for i := int64(0); i < count; i++ {
		v.stamps[first+i*ChunkSize] = stamp
	}
}

// ReadAt reads through the pipeline: per chunk — metadata lookup, then a
// random flash read on the content node (content addressing scatters even
// logically sequential data).
func (v *Volume) ReadAt(p *sim.Proc, off, size int64) (stamp uint64, exists bool) {
	if off < 0 || off+size > v.size {
		panic("solidfire: read beyond volume")
	}
	first, count := chunkSpan(off, size)
	wg := sim.NewWaitGroup(v.c.K)
	for i := int64(0); i < count; i++ {
		i := i
		chunkOff := first + i*ChunkSize
		wg.Add(1)
		v.c.K.Go("sf.rchunk", func(cp *sim.Proc) {
			defer wg.Done()
			cp.Sleep(v.c.prop)
			if count < 32 || i%8 == 0 {
				v.meta.cpu.UseWithAllocs(cp, metaCPU, 15)
			}
			target := v.c.chunkNode(v.id, chunkOff, v.stamps[chunkOff])
			target.cpu.UseWithAllocs(cp, chunkReadCPU, 15)
			if v.rnd.Float64() < metaReadProb {
				target.flash.Read(cp, v.rnd.Int63n(1<<36)&^(ChunkSize-1), ChunkSize)
			}
			target.flash.Read(cp, v.rnd.Int63n(1<<36)&^(ChunkSize-1), ChunkSize)
			cp.Sleep(v.c.prop)
			v.c.Chunks.Inc()
		})
	}
	wg.Wait(p)
	st, ok := v.stamps[first]
	return st, ok
}
