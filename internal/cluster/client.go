package cluster

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cpumodel"
	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/osd"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Client is one block-storage consumer (a VM with a KRBD mount in the
// paper's tests). It routes each object operation to the object's primary
// OSD and correlates replies. With Params.ClientOpTimeout set it also
// retries: a timed-out or epoch-invalidated attempt is resent (fresh op,
// fresh ID) to the current acting primary after an exponential backoff
// with seeded jitter. Writes are idempotent — a duplicate apply stores the
// same stamp at the same extent — so retry-after-unacked-success is safe.
type Client struct {
	c       *Cluster
	ep      *netsim.Endpoint
	node    *cpumodel.Node
	pending map[uint64]*pendingOp
	nextID  uint64
	rnd     *rng.Rand
	retries uint64
	eios    uint64
	// tenant stamps every op for per-tenant admission control; empty (the
	// NewClient default) bypasses admission entirely.
	tenant string

	// Free lists for attempt records. A replied attempt recycles its op
	// and its pending record; a dropped one (timed out, or its target
	// marked down) recycles only the pending record, because an OSD or
	// the network may still hold its op and a late reply carries it.
	opFree   sim.FreeList[osd.ClientOp]
	pendFree sim.FreeList[pendingOp]
}

type pendingOp struct {
	done   *sim.Event
	reply  *osd.Reply
	target int       // OSD the attempt was sent to, for epoch-change resend
	timer  sim.Timer // the attempt's timeout, with ClientOpTimeout set
}

// NewClient creates a client with its own (generously provisioned) CPU
// node; client-side compute is not the system under test.
func (c *Cluster) NewClient() *Client {
	c.clients++
	node := cpumodel.NewNode(c.K, fmt.Sprintf("client%d", c.clients), 64, cpumodel.JEMalloc)
	cl := &Client{
		c:       c,
		node:    node,
		pending: make(map[uint64]*pendingOp),
		// An independent stream (not forked from the cluster rng) keeps
		// every existing seeded run bit-identical; it is drawn from only
		// on retry backoff.
		rnd: rng.New(c.Params.Seed ^ 0x9e3779b97f4a7c15*uint64(c.clients)),
	}
	cl.ep = c.Net.NewEndpoint(fmt.Sprintf("client%d", c.clients), node, c.Params.ClientNoDelay)
	cl.ep.SetReceiver(cl.handleReply)
	c.clientList = append(c.clientList, cl)
	return cl
}

// NewClientTenant creates a client whose every op carries a tenant name,
// making it subject to the cluster's per-tenant admission control. Use the
// Try* ops to observe rejections; the plain ops panic on one (a tenanted
// caller that cannot handle rejection is a model bug).
func (c *Cluster) NewClientTenant(tenant string) *Client {
	cl := c.NewClient()
	cl.tenant = tenant
	return cl
}

// Endpoint returns the client's network identity.
func (cl *Client) Endpoint() *netsim.Endpoint { return cl.ep }

// Retries reports how many attempts were resent after a timeout or an
// epoch change.
func (cl *Client) Retries() uint64 { return cl.retries }

// EIOs reports how many reads failed because every replica copy of the
// extent was damaged. An EIO read returns (0, false) — never corrupt data.
func (cl *Client) EIOs() uint64 { return cl.eios }

// errUnknownReply reports a reply that matches no attempt, in a run without
// timeouts, where every attempt waits for its reply: a model bug.
var errUnknownReply = errors.New("cluster: reply for unknown op")

// handleReply runs in kernel context (see netsim.Receiver).
func (cl *Client) handleReply(m *netsim.Message) {
	rep := m.Payload.(*osd.Reply)
	pend, ok := cl.pending[rep.Op.ID]
	if !ok {
		if cl.c.Params.ClientOpTimeout <= 0 {
			panic(errUnknownReply)
		}
		// A late reply for a dropped attempt, whose op was never recycled,
		// so its ID names no live attempt.
		*rep = osd.Reply{}
		cl.c.replies.Put(rep)
		return
	}
	delete(cl.pending, rep.Op.ID)
	pend.reply = rep
	pend.done.Fire()
}

// noteEpoch wakes attempts addressed to OSDs that are now down so doOp can
// resend them immediately instead of waiting out the timeout. Called by
// markOSDDown; ids are processed in sorted order for determinism.
func (cl *Client) noteEpoch() {
	if cl.c.Params.ClientOpTimeout <= 0 || len(cl.pending) == 0 {
		return
	}
	var ids []uint64
	for id, pend := range cl.pending { //afvet:allow determinism ids are sorted before use
		if cl.c.down[pend.target] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		cl.pending[id].done.Fire()
	}
}

// WriteObject writes [off, off+size) of the named object, blocking until
// the cluster acks (journaled on primary and all replicas). stamp is stored
// for verification when the cluster runs with VerifyData.
func (cl *Client) WriteObject(p *sim.Proc, oid string, off, size int64, stamp uint64) {
	cl.writePG(p, oid, cl.pgOf(oid), off, size, stamp)
}

// writePG is WriteObject for a caller that knows the object's PG.
func (cl *Client) writePG(p *sim.Proc, oid string, pg uint32, off, size int64, stamp uint64) {
	if _, _, admitted := cl.doOp(p, osd.OpWrite, oid, pg, off, size, stamp); !admitted {
		panic("cluster: tenanted write rejected; use TryWriteObject")
	}
}

// ReadObject reads [off, off+size) of the named object, returning the
// stamp of the extent (when VerifyData is on) and object existence.
func (cl *Client) ReadObject(p *sim.Proc, oid string, off, size int64) (stamp uint64, exists bool) { //afvet:allow unused cluster_test.go and scrubsched_test.go read bare OIDs through it
	return cl.readPG(p, oid, cl.pgOf(oid), off, size)
}

// readPG is ReadObject for a caller that knows the object's PG.
func (cl *Client) readPG(p *sim.Proc, oid string, pg uint32, off, size int64) (stamp uint64, exists bool) {
	st, ex, admitted := cl.doOp(p, osd.OpRead, oid, pg, off, size, 0)
	if !admitted {
		panic("cluster: tenanted read rejected; use TryReadObject")
	}
	return st, ex
}

// TryWriteObject is WriteObject for tenanted clients: admission control may
// refuse the op, reported as admitted=false (the write did no work).
func (cl *Client) TryWriteObject(p *sim.Proc, oid string, off, size int64, stamp uint64) (admitted bool) {
	_, _, admitted = cl.doOp(p, osd.OpWrite, oid, cl.pgOf(oid), off, size, stamp)
	return admitted
}

// TryReadObject is ReadObject for tenanted clients; on admitted=false the
// read was refused by admission control and stamp/exists are meaningless.
func (cl *Client) TryReadObject(p *sim.Proc, oid string, off, size int64) (stamp uint64, exists, admitted bool) {
	return cl.doOp(p, osd.OpRead, oid, cl.pgOf(oid), off, size, 0)
}

// pgOf places an object in its PG.
func (cl *Client) pgOf(oid string) uint32 { return crush.ObjectToPG(oid, cl.c.Params.PGs) }

func (cl *Client) doOp(p *sim.Proc, kind osd.OpKind, oid string, pg uint32, off, size int64, stamp uint64) (uint64, bool, bool) {
	timeout := cl.c.Params.ClientOpTimeout
	for attempt := 0; ; attempt++ {
		acting := cl.c.actingSet(pg)
		if len(acting) == 0 {
			if timeout <= 0 {
				panic("cluster: no up OSD for pg")
			}
			// Whole acting set down: wait for recovery and try again.
			cl.backoff(p, attempt)
			continue
		}
		primary := cl.c.osds[acting[0]]
		cl.nextID++
		op := cl.opFree.Get()
		op.Kind, op.OID, op.PG, op.Off, op.Len = kind, oid, pg, off, size
		op.Stamp, op.Client, op.ID = stamp, cl.ep, cl.nextID
		op.Tenant = cl.tenant
		pend := cl.pendFree.Get()
		if pend.done == nil { // a new record: wire its completion event
			pend.done = sim.NewEvent(cl.c.K)
		}
		pend.target = acting[0]
		// The reply and timeout paths both delete this map entry before the
		// record recycles below, so no alias survives the release.
		cl.pending[op.ID] = pend //afvet:allow poolsafe pending entry is removed before the record recycles
		msgKind := osd.MsgWrite
		wire := size + 200 // request header
		if kind == osd.OpRead {
			msgKind = osd.MsgRead
			wire = 200
		}
		cl.ep.Send(p, primary.Endpoint(), wire, msgKind, op)
		if timeout > 0 {
			// Every path below cancels the timer before the record
			// recycles: a timer left armed would fire the event of the
			// record's next attempt.
			pend.timer = cl.c.K.AfterTimer(timeout, fireEvent, pend.done)
		}
		pend.done.Wait(p)
		rep := pend.reply
		if rep == nil {
			// Timed out, or the target was marked down: drop the attempt.
			delete(cl.pending, op.ID)
		}
		cl.c.K.Cancel(pend.timer) // a no-op once it has fired
		pend.reply, pend.timer = nil, sim.Timer{}
		pend.done.Reset()
		cl.pendFree.Put(pend)
		if rep == nil {
			// Resend. A late reply is tolerated by handleReply, and the op
			// stays with whoever may still hold it.
			cl.retries++
			cl.backoff(p, attempt)
			continue
		}
		st, ex := rep.Stamp, rep.Exists
		admitted := !rep.Rejected
		if !admitted {
			// Admission control refused the op at the messenger. The
			// rejection is the answer — retrying would charge the bucket
			// again — so surface it instead of looping.
			st, ex = 0, false
		}
		if rep.EIO {
			// The cluster has no healthy copy of the extent; retrying
			// would not help. Surface the failure as a missing read.
			cl.eios++
			st, ex = 0, false
		}
		// The op is fully quiescent once the primary replied (all replica
		// commits precede an ack, every fetch precedes a read reply), so it
		// recycles with the reply.
		*rep = osd.Reply{}
		cl.c.replies.Put(rep)
		*op = osd.ClientOp{}
		cl.opFree.Put(op)
		return st, ex, admitted
	}
}

func fireEvent(a any) { a.(*sim.Event).Fire() }

// backoff sleeps an exponentially growing, jittered delay between attempts.
func (cl *Client) backoff(p *sim.Proc, attempt int) {
	base := cl.c.Params.ClientOpTimeout / 4
	if base <= 0 {
		base = sim.Millisecond
	}
	if attempt > 5 {
		attempt = 5
	}
	d := base << uint(attempt)
	d += sim.Time(cl.rnd.Int63n(int64(base)))
	p.Sleep(d)
}

// Image is an RBD-style block image striped over 4 MB objects.
type Image struct {
	Name string
	Size int64
	// stripes caches each stripe's object id and PG; both are immutable,
	// so repeated block ops on a stripe reuse one string and hash it once.
	stripes []stripe
}

type stripe struct {
	oid string
	pg  uint32
}

// locate maps a block offset to its object, the object's PG among pgs,
// and the intra-object offset.
func (img *Image) locate(off int64, pgs uint32) (oid string, pg uint32, objOff int64) {
	idx := off / ObjectSize
	for int64(len(img.stripes)) <= idx {
		oid := fmt.Sprintf("rbd.%s.%d", img.Name, int64(len(img.stripes)))
		img.stripes = append(img.stripes, stripe{oid, crush.ObjectToPG(oid, pgs)})
	}
	s := &img.stripes[idx]
	return s.oid, s.pg, off % ObjectSize
}

// BlockDevice is a client's view of an image (a mapped /dev/rbd*).
type BlockDevice struct {
	Client *Client
	Img    Image
}

// OpenDevice maps an image for a client.
func (cl *Client) OpenDevice(name string, size int64) *BlockDevice {
	return &BlockDevice{Client: cl, Img: Image{Name: name, Size: size}}
}

// Size returns the image capacity in bytes.
func (bd *BlockDevice) Size() int64 { return bd.Img.Size }

// WriteAt writes size bytes at off, splitting on object boundaries.
func (bd *BlockDevice) WriteAt(p *sim.Proc, off, size int64, stamp uint64) {
	if off < 0 || off+size > bd.Img.Size {
		panic("cluster: write beyond device")
	}
	for size > 0 {
		oid, pg, objOff := bd.Img.locate(off, bd.Client.c.Params.PGs)
		n := size
		if objOff+n > ObjectSize {
			n = ObjectSize - objOff
		}
		bd.Client.writePG(p, oid, pg, objOff, n, stamp)
		off += n
		size -= n
	}
}

// ReadAt reads size bytes at off. It returns the stamp of the first extent
// (verification convenience) and whether all touched objects existed.
func (bd *BlockDevice) ReadAt(p *sim.Proc, off, size int64) (stamp uint64, exists bool) {
	if off < 0 || off+size > bd.Img.Size {
		panic("cluster: read beyond device")
	}
	first := true
	exists = true
	for size > 0 {
		oid, pg, objOff := bd.Img.locate(off, bd.Client.c.Params.PGs)
		n := size
		if objOff+n > ObjectSize {
			n = ObjectSize - objOff
		}
		st, ex := bd.Client.readPG(p, oid, pg, objOff, n)
		if first {
			stamp = st
			first = false
		}
		exists = exists && ex
		off += n
		size -= n
	}
	return stamp, exists
}
