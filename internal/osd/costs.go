package osd

import "repro/internal/sim"

// The CPU and byte constants of the OSD pipeline. They are calibrated so
// that the *relative* behaviour matches the paper's measurements (§2.3's
// stage latencies under saturation, §4's throughput ratios); absolute
// values approximate Ceph 0.94 on 2016-era Xeons.
const (
	// opSetupCPU: request decode, op context creation, PG resolution.
	opSetupCPU    = 60 * sim.Microsecond
	opSetupAllocs = 50
	// pglogBuildCPU: building the pg_log entry and object context under
	// the PG lock (the §2.3 step-2 work).
	pglogBuildCPU    = 80 * sim.Microsecond
	pglogBuildAllocs = 60
	// repSendCPU: per-replica sub-op marshalling.
	repSendCPU = 12 * sim.Microsecond
	// commitCPU: community completion handling (journal commit, applied,
	// replica ack) done by the finisher under the PG lock.
	commitCPU    = 55 * sim.Microsecond
	commitAllocs = 40
	// commitFastCPU: AFCeph minimal completion work under the OP lock.
	commitFastCPU = 4 * sim.Microsecond
	// deferredCPU: AFCeph deferred bookkeeping done in completion-worker
	// batches under the PG lock.
	deferredCPU = 12 * sim.Microsecond
	// ackCPU: building and sending the client ack.
	ackCPU = 25 * sim.Microsecond
	// readCPU: read-path CPU besides the filestore read.
	readCPU = 150 * sim.Microsecond
	// Message framing overheads in bytes.
	JournalHeaderBytes = 300
	repMsgOverhead     = 250
	ackBytes           = 100
	readReplyOverhead  = 150
	// pglogValueBytes / omapBytes: metadata payload per write transaction.
	pglogValueBytes = 180
	omapBytes       = 300
)
