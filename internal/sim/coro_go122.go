//go:build !go1.23

package sim

// Processes are iter.Pull coroutines (coro.go), and package iter needs Go
// 1.23 or later. This undefined name makes an older toolchain's build error
// state the cause.
var _ = sim_requires_go1_23_for_iter_Pull
