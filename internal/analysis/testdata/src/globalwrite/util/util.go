// Package util is the scoping control for the globalwrite fixture: the same
// patterns as the osd fixture in a package name outside the audit set must
// produce no diagnostics.
package util

import (
	"repro/internal/sim"
)

var opCount int

func handleOp(p *sim.Proc) {
	opCount++
}

func armTimer(k *sim.Kernel) {
	k.After(10, func() {
		opCount++
	})
}
