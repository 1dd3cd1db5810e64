package main

import (
	"fmt"
	"testing"

	"repro/afceph"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPrefillReadsBack requires every object prefill wrote to exist for a
// read issued the moment prefill returns. Each device is read from its last
// object backwards, so the writes acked last, whose applies lag furthest
// behind their acks, are read first. At seed 22 the last prefill write is
// acked late in a kernel step, so stopping at the step that saw every ack
// would leave about 250 applies pending and 54 objects missing.
func TestPrefillReadsBack(t *testing.T) {
	s, _ := specByName("randread-wide")
	c := afceph.New(s.config(22)).Internal()
	fleet := workload.VMFleet(c, s.vms, s.imageSize, workload.Spec{
		Pattern: s.pattern, BlockSize: blockSize, IODepth: 1, Runtime: sim.Millisecond,
	})
	devs := make([]workload.BlockDev, len(fleet.Jobs))
	for i, j := range fleet.Jobs {
		devs[i] = j.BD
	}
	prefill(c, devs)

	left, missing := len(devs), 0
	for i, bd := range devs {
		c.K.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
			for off := bd.Size() - cluster.ObjectSize; off >= 0; off -= cluster.ObjectSize {
				if _, ok := bd.ReadAt(p, off, blockSize); !ok {
					missing++
				}
			}
			left--
		})
	}
	for left > 0 {
		c.K.Run(c.K.Now() + 10*sim.Millisecond)
	}
	if missing != 0 {
		t.Fatalf("%d of %d prefilled objects read back missing", missing, len(devs)*int(devs[0].Size()/cluster.ObjectSize))
	}
}
