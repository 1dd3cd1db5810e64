// Package osd implements the object storage daemon: Ceph's full write and
// read paths — messenger → PG queue → OP_WQ workers under PG locks →
// replication → journal → filestore → completion/ack processing — with
// every one of the paper's optimizations behind a Config toggle so that
// community Ceph 0.94 behaviour and AFCeph behaviour (and any ablation in
// between) run on the same code.
package osd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/filestore"
	"repro/internal/oslog"
	"repro/internal/sim"
)

// Config selects the OSD's behaviour. Tuning.Config derives the stock
// profile, AFCeph and every ablation. A cluster copies one Config to every
// OSD: all of its fields are values except Admission.Tenants, which the
// OSDs only read. What no profile varies is a constant: the pipeline
// costs in costs.go and the pipeline shape below.
type Config struct {
	// ID names the daemon; cluster.New numbers its OSDs 0..n-1.
	ID int
	// NumFilestoreWorkers sizes the filestore worker pool.
	NumFilestoreWorkers int
	// Throttles (§3.2).
	Throttles core.ThrottleConfig
	// Admission, when it has tenant entries, enables per-tenant token-bucket
	// admission control at the messenger: over-limit tenanted ops are
	// rejected before they take a message-cap token or PG-queue slot. The
	// zero value (every profile's default) changes nothing.
	Admission core.AdmissionConfig
	// journalQueueCap bounds ops queued toward the journal writer; only
	// in-package tests shrink it.
	journalQueueCap int
	// JournalSize is the NVRAM ring size in bytes (paper: 2 GB per OSD).
	JournalSize int64
	// Optimization toggles (§3.1).
	OptPendingQueue     bool
	OptCompletionWorker bool
	OptFastAck          bool
	OrderedAcks         bool
	// Batching-based wakeup (§2.1): community Ceph batches queued ops to
	// amortize HDD seeks; ops wait for WakeupBatch peers or wakeupTimeout.
	WakeupBatch int
	// Logging (§3.3); the mode picks the logger's cost model.
	LogMode oslog.Mode
	// Backend selects the object-store backend: store.BackendFileStore
	// (default; journal + filestore double-write) or
	// store.BackendDirectStore (direct write with a KV WAL for small
	// writes — no journal double-write).
	Backend string
	// Filestore / transaction behaviour (§3.4).
	FStore filestore.Config
	// TraceSample: record a stage trace for every Nth client write
	// (0 disables tracing).
	TraceSample int
}

// Fixed pipeline shape: the stock thread count, debug volume and
// batching-wakeup timeout, which every profile shares.
const (
	numOpWorkers  = 2 // osd_op_threads default
	logPerStage   = 8 // debug entries emitted per pipeline stage
	wakeupTimeout = sim.Millisecond
)

// Tuning selects which of the paper's optimizations are active. The zero
// value is fully stock (community Ceph 0.94 behaviour). It is the one
// definition of the optimization set: Config applies every OSD-side field,
// and the cluster applies Jemalloc and NoDelay to its hosts.
type Tuning struct {
	// PendingQueue: per-PG pending queues so OP_WQ workers never block on
	// a held PG lock (§3.1, Fig. 5).
	PendingQueue bool
	// CompletionWorker: dedicated batching completion thread + OP-level
	// locks for commit/applied events (§3.1, Fig. 6).
	CompletionWorker bool
	// FastAck: replica acks processed in messenger context instead of
	// through the PG queue (§3.1).
	FastAck bool
	// ThrottleSSD: filestore/message throttles sized for flash instead of
	// the HDD-era defaults (§3.2).
	ThrottleSSD bool
	// Jemalloc: replace tcmalloc with jemalloc (§3.2).
	Jemalloc bool
	// NoDelay: disable TCP Nagle on client (KRBD) connections (§3.2).
	NoDelay bool
	// AsyncLog: non-blocking multi-threaded logging with a log cache
	// (§3.3).
	AsyncLog bool
	// LogOff: disable logging entirely (the paper's "No log" experiments).
	LogOff bool
	// LightTx: light-weight transactions — batched KV ops, minimized
	// syscalls, no set-alloc-hint, write-through metadata cache (§3.4).
	LightTx bool
	// OrderedAcks: deliver client acks in per-PG submission order even on
	// the fast paths (§3.1's ordering option).
	OrderedAcks bool
	// NoBatchWakeup: disable the HDD-era batching wakeup of queued ops.
	NoBatchWakeup bool
}

// Community returns stock Ceph 0.94 behaviour.
func Community() Tuning { return Tuning{} }

// AFCeph returns the paper's fully optimized configuration.
func AFCeph() Tuning {
	return Tuning{
		PendingQueue:     true,
		CompletionWorker: true,
		FastAck:          true,
		ThrottleSSD:      true,
		Jemalloc:         true,
		NoDelay:          true,
		AsyncLog:         true,
		LightTx:          true,
		NoBatchWakeup:    true,
	}
}

// ProfileByName resolves a profile name: "community" or "afceph".
func ProfileByName(name string) (Tuning, error) {
	switch name {
	case "community":
		return Community(), nil
	case "afceph":
		return AFCeph(), nil
	}
	return Tuning{}, fmt.Errorf("unknown profile %q (want community or afceph)", name)
}

// Config returns the OSD configuration: stock Ceph 0.94 behaviour with
// each selected optimization applied. Jemalloc and NoDelay are host
// settings with no OSD effect.
func (t Tuning) Config() Config {
	c := Config{
		NumFilestoreWorkers: 2, // filestore_op_threads default
		Throttles:           core.HDDThrottles(),
		journalQueueCap:     500,
		JournalSize:         2 << 30,
		OptPendingQueue:     t.PendingQueue,
		OptCompletionWorker: t.CompletionWorker,
		OptFastAck:          t.FastAck,
		OrderedAcks:         t.OrderedAcks,
		WakeupBatch:         4,
		LogMode:             oslog.Sync,
		FStore:              filestore.CommunityConfig(),
	}
	if t.ThrottleSSD {
		c.Throttles = core.SSDThrottles()
		c.NumFilestoreWorkers = 6 // flash-era thread tuning (part of §3.2)
	}
	if t.NoBatchWakeup {
		c.WakeupBatch = 1
	}
	if t.AsyncLog {
		c.LogMode = oslog.Async
	}
	if t.LogOff {
		c.LogMode = oslog.Off
	}
	if t.LightTx {
		c.FStore = filestore.LightConfig()
	}
	return c
}
