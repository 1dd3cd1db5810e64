package netsim

import (
	"fmt"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/sim"
)

// msgCPUPerMessage measures receiver CPU per message at a connection count.
func msgCPUPerMessage(t *testing.T, conns int) float64 {
	t.Helper()
	k := sim.NewKernel()
	net := New(k, DefaultParams())
	rx := cpumodel.NewNode(k, "rx", 64, cpumodel.JEMalloc)
	tx := cpumodel.NewNode(k, "tx", 64, cpumodel.JEMalloc)
	dst := net.NewEndpoint("dst", rx, true)
	dst.SetReceiver(func(m *Message) {})
	for i := 0; i < conns; i++ {
		src := net.NewEndpoint(fmt.Sprintf("src%d", i), tx, true)
		k.Go("send", func(p *sim.Proc) {
			for j := 0; j < 10; j++ {
				src.Send(p, dst, 4096, 0, nil)
				p.Sleep(sim.Millisecond)
			}
		})
	}
	k.Run(sim.Forever)
	return float64(rx.BusyNanos()) / float64(dst.RxMsgs.Value())
}

func TestConnectionCountInflatesMessengerCPU(t *testing.T) {
	few := msgCPUPerMessage(t, 4)
	many := msgCPUPerMessage(t, 200)
	if many < 1.5*few {
		t.Fatalf("per-message CPU with 200 conns (%.0fns) not well above 4 conns (%.0fns)",
			many, few)
	}
}
