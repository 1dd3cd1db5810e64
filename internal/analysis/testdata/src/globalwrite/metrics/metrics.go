// Package metrics is the dependency side of the cross-package globalwrite
// fixture: its global write is visible to the audited caller package only
// through the driver's interprocedural summaries.
package metrics

// Total is package-level mutable state.
var Total int

// Record bumps the package-level counter.
func Record(n int) {
	Total += n
}

// Read is a pure read; calling it from a simulation context is fine.
func Read() int {
	return Total
}
