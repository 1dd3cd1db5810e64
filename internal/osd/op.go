package osd

import (
	"repro/internal/filestore"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
)

// Network message kinds used by the storage protocol.
const (
	MsgWrite          = iota // client -> primary OSD
	MsgRead                  // client -> primary OSD
	MsgRepOp                 // primary -> replica OSD
	MsgRepCommit             // replica -> primary OSD
	MsgReply                 // OSD -> client (write ack / read reply)
	MsgShardRead             // primary -> holder: gather one copy or shard
	MsgShardReadReply        // holder -> primary: its answer
)

// OpKind distinguishes client operations.
type OpKind int

// Client operation kinds.
const (
	OpWrite OpKind = iota
	OpRead
)

// ClientOp is one client request and, at the primary, its completion state.
type ClientOp struct {
	Kind  OpKind
	OID   string
	PG    uint32
	Off   int64
	Len   int64
	Stamp uint64
	// Client is the reply-to endpoint; ID correlates the reply.
	Client *netsim.Endpoint
	ID     uint64
	// Tenant names the multi-tenant scenario tenant the op belongs to;
	// empty (the default for every plain client) bypasses admission
	// control entirely, keeping pre-existing runs bit-identical.
	Tenant string

	// Primary-side completion state (guarded by the PG lock in community
	// mode, by DES atomicity plus the OP-level discipline in AFCeph mode).
	waitCommits int
	localCommit bool
	acked       bool
	seq         uint64
	// gen is the OSD process generation that accepted the op; completions
	// carrying an op from before a crash are discarded.
	gen      int
	received sim.Time
	tr       *Trace
}

// Reply is the payload of a MsgReply message.
type Reply struct {
	Op *ClientOp
	// Stamp echoes the filestore extent stamp for read verification.
	Stamp  uint64
	Exists bool
	// EIO fails a read with fewer usable copies or shards than it needs:
	// corrupt data is never returned, so the only honest answer is an I/O
	// error.
	EIO bool
	// Rejected reports that per-tenant admission control refused the op at
	// the messenger before it consumed a message-cap token or queue slot.
	// The op did no work; the client must not retry (the rejection is the
	// answer, not a transient failure).
	Rejected bool
}

// repOp is a replication sub-op sent to a replica OSD.
type repOp struct {
	oid     string
	pg      uint32
	off     int64
	length  int64
	stamp   uint64
	seq     uint64 // primary-assigned PG log sequence
	parent  *ClientOp
	primary *netsim.Endpoint
}

// repCommit notifies the primary that a replica journaled the sub-op.
type repCommit struct {
	parent *ClientOp
}

// shardRead asks one member of the acting set for its shard of an extent:
// its whole copy under replication, its stripe fragment under EC. The
// gather state lives at the primary; idx names which acting-set slot this
// request covers.
type shardRead struct {
	op      *ClientOp // the client read being assembled (primary-owned)
	primary *netsim.Endpoint
	gen     int // primary generation that started the gather
	idx     int // acting-set slot of the queried member
	g       *gather
	// wantState asks for the holder's object snapshot: only the heal of
	// a damaged primary copy uses it.
	wantState bool
}

// shardReadReply carries a holder's answer back to the primary. ok means
// the holder's copy passed verification (a clean "extent absent" is still
// ok; the primary decides whether absence is usable). state snapshots the
// holder's object for the heal of a damaged primary copy, when the fetch
// asked for it.
type shardReadReply struct {
	sr      *shardRead
	stamp   uint64
	exists  bool
	ok      bool
	state   filestore.ObjectState
	stateOK bool
}

// workItem is a PG-queue entry (exactly one field set).
type workItem struct {
	cop *ClientOp
	rop *repOp
	rc  *repCommit
	sr  *shardRead
}

// jEntry is a commit-queue record carrying the store transaction that must
// subsequently be applied to the backend. The transaction copies the
// write's payload fields out of the originating op: the backend apply runs
// after the client ack (write-ahead order), by which time a pooled
// ClientOp may already be recycled, so the entry must not dereference cop
// past the ack.
type jEntry struct {
	t   store.Txn
	enq sim.Time
	cop *ClientOp // set at the primary; valid only until the ack
	rop *repOp    // set at a replica
}
