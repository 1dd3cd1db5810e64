// Package osd is an afvet fixture exercising the globalwrite analyzer in an
// audited package name: global writes from simulation contexts (direct,
// same-package transitive, cross-package transitive) and scheduled-callback
// contexts.
package osd

import (
	"repro/internal/analysis/testdata/src/globalwrite/metrics"
	"repro/internal/sim"
)

var opCount int

func handleOp(p *sim.Proc) {
	opCount++ // want `handleOp writes package-level state .*osd.opCount from a simulation context`
}

func handleIndirect(p *sim.Proc) {
	bump() // want `handleIndirect calls bump, which writes package-level state`
}

// bump is not itself a simulation context: its direct write is flagged only
// at simulation-context call sites, through its summary.
func bump() {
	opCount = opCount + 1
}

func handleCross(p *sim.Proc) {
	metrics.Record(1) // want `handleCross calls metrics.Record, which writes package-level state`
}

func handleRead(p *sim.Proc) int {
	return metrics.Read()
}

func armTimer(k *sim.Kernel) {
	k.After(10, func() {
		opCount++ // want `armTimer \(scheduled callback\) writes package-level state`
	})
}

func localStateIsFine(p *sim.Proc) int {
	count := 0
	count++
	return count
}
