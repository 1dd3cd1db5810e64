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
	"repro/internal/store"
)

// Costs collects the CPU/byte constants of the OSD pipeline. They are
// calibrated so that the *relative* behaviour matches the paper's
// measurements (§2.3's stage latencies under saturation, §4's throughput
// ratios); absolute values approximate Ceph 0.94 on 2016-era Xeons.
type Costs struct {
	// OpSetupCPU: request decode, op context creation, PG resolution.
	OpSetupCPU    sim.Time
	OpSetupAllocs int
	// PGLogBuildCPU: building the pg_log entry and object context under
	// the PG lock (the §2.3 step-2 work).
	PGLogBuildCPU    sim.Time
	PGLogBuildAllocs int
	// RepSendCPU: per-replica sub-op marshalling.
	RepSendCPU sim.Time
	// CommitCPU: community completion handling (journal commit, applied,
	// replica ack) done by the finisher under the PG lock.
	CommitCPU    sim.Time
	CommitAllocs int
	// CommitFastCPU: AFCeph minimal completion work under the OP lock.
	CommitFastCPU sim.Time
	// DeferredCPU: AFCeph deferred bookkeeping done in completion-worker
	// batches under the PG lock.
	DeferredCPU sim.Time
	// AckCPU: building and sending the client ack.
	AckCPU sim.Time
	// ReadCPU: read-path CPU besides the filestore read.
	ReadCPU sim.Time
	// Message framing overheads in bytes.
	JournalHeaderBytes int64
	RepMsgOverhead     int64
	AckBytes           int64
	ReadReplyOverhead  int64
	// PGLogValueBytes / OmapBytes: metadata payload per write transaction.
	PGLogValueBytes int64
	OmapBytes       int64
}

// DefaultCosts returns the calibrated pipeline constants.
func DefaultCosts() Costs {
	return Costs{
		OpSetupCPU:         60 * sim.Microsecond,
		OpSetupAllocs:      50,
		PGLogBuildCPU:      80 * sim.Microsecond,
		PGLogBuildAllocs:   60,
		RepSendCPU:         12 * sim.Microsecond,
		CommitCPU:          55 * sim.Microsecond,
		CommitAllocs:       40,
		CommitFastCPU:      4 * sim.Microsecond,
		DeferredCPU:        12 * sim.Microsecond,
		AckCPU:             25 * sim.Microsecond,
		ReadCPU:            150 * sim.Microsecond,
		JournalHeaderBytes: 300,
		RepMsgOverhead:     250,
		AckBytes:           100,
		ReadReplyOverhead:  150,
		PGLogValueBytes:    180,
		OmapBytes:          300,
	}
}

// Config selects the OSD's behaviour. CommunityConfig is the stock
// profile; Tuning.Config derives AFCeph and every ablation from it. A
// cluster copies one Config to every OSD: all of its fields are values
// except Admission.Tenants, which the OSDs only read.
type Config struct {
	// ID names the daemon; cluster.New numbers its OSDs 0..n-1.
	ID int
	// Worker pools.
	NumOpWorkers        int
	NumFilestoreWorkers int
	// Throttles (§3.2).
	Throttles core.ThrottleConfig
	// Admission, when it has tenant entries, enables per-tenant token-bucket
	// admission control at the messenger: over-limit tenanted ops are
	// rejected before they take a message-cap token or PG-queue slot. The
	// zero value (every profile's default) changes nothing.
	Admission core.AdmissionConfig
	// JournalQueueCap bounds ops queued toward the journal writer.
	JournalQueueCap int
	// JournalSize is the NVRAM ring size in bytes (paper: 2 GB per OSD).
	JournalSize int64
	// Optimization toggles (§3.1).
	OptPendingQueue     bool
	OptCompletionWorker bool
	OptFastAck          bool
	OrderedAcks         bool
	// Batching-based wakeup (§2.1): community Ceph batches queued ops to
	// amortize HDD seeks; ops wait for WakeupBatch peers or WakeupTimeout.
	WakeupBatch   int
	WakeupTimeout sim.Time
	// Logging (§3.3).
	LogMode     oslog.Mode
	LogParams   oslog.Params
	LogPerStage int // debug entries emitted per pipeline stage
	// Backend selects the object-store backend: store.BackendFileStore
	// (default; journal + filestore double-write) or
	// store.BackendDirectStore (direct write with a KV WAL for small
	// writes — no journal double-write).
	Backend string
	// DStore configures the directstore backend (ignored by filestore).
	DStore store.DirectConfig
	// Filestore / transaction behaviour (§3.4).
	FStore filestore.Config
	// TraceSample: record a stage trace for every Nth client write
	// (0 disables tracing).
	TraceSample int
	Costs       Costs
}

// CommunityConfig returns stock Ceph 0.94 behaviour.
func CommunityConfig() Config {
	return Config{
		NumOpWorkers:        2, // osd_op_threads default
		NumFilestoreWorkers: 2, // filestore_op_threads default
		Throttles:           core.HDDThrottles(),
		JournalQueueCap:     500,
		JournalSize:         2 << 30,
		OptPendingQueue:     false,
		OptCompletionWorker: false,
		OptFastAck:          false,
		OrderedAcks:         false,
		WakeupBatch:         4,
		WakeupTimeout:       sim.Millisecond,
		LogMode:             oslog.Sync,
		LogParams:           oslog.CommunityParams(),
		LogPerStage:         8,
		FStore:              filestore.CommunityConfig(),
		Costs:               DefaultCosts(),
	}
}

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

// Config returns the OSD configuration: CommunityConfig with each selected
// optimization applied. Jemalloc and NoDelay are host settings with no OSD
// effect.
func (t Tuning) Config() Config {
	c := CommunityConfig()
	c.OptPendingQueue = t.PendingQueue
	c.OptCompletionWorker = t.CompletionWorker
	c.OptFastAck = t.FastAck
	c.OrderedAcks = t.OrderedAcks
	if t.ThrottleSSD {
		c.Throttles = core.SSDThrottles()
		c.NumFilestoreWorkers = 6 // flash-era thread tuning (part of §3.2)
	}
	if t.NoBatchWakeup {
		c.WakeupBatch = 1
		c.WakeupTimeout = 0
	}
	if t.AsyncLog {
		c.LogMode = oslog.Async
		c.LogParams = oslog.AFCephParams()
	}
	if t.LogOff {
		c.LogMode = oslog.Off
	}
	if t.LightTx {
		c.FStore = filestore.LightConfig()
	}
	return c
}
