package cluster

import (
	"fmt"

	"repro/internal/crush"
	"repro/internal/filestore"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ScrubParams configures the background scrub scheduler. The zero value
// disables it entirely, leaving every existing run bit-identical.
type ScrubParams struct {
	// Interval is the pause between scrub rounds; zero disables the
	// scheduler.
	Interval sim.Time
	// BytesPerSec caps the deep-scrub read bandwidth cluster-wide (the
	// osd_scrub throttle); zero scrubs unthrottled.
	BytesPerSec int64
	// MaxConcurrentPGs bounds how many PGs scrub simultaneously
	// (osd_max_scrubs); values <= 0 mean 1.
	MaxConcurrentPGs int
	// AutoRepair heals findings immediately via the stamp-union repair
	// machinery (Ceph's osd_scrub_auto_repair).
	AutoRepair bool
	// SettleDelay is the recheck pause before a version/stamp divergence
	// becomes a finding: replicas touched by in-flight writes legitimately
	// disagree for a moment, and a second look separates rot from motion.
	// Values <= 0 default to 2ms.
	SettleDelay sim.Time
}

// ScrubStats aggregates scheduler activity.
type ScrubStats struct {
	Rounds          stats.Counter
	PGsScrubbed     stats.Counter
	ObjectsScrubbed stats.Counter
	DeepReads       stats.Counter // per-copy checksum reads issued
	BytesRead       stats.Counter // deep-read bytes (throttled)
	Yields          stats.Counter // head-of-line yields to client I/O
	Findings        stats.Counter
	Repairs         stats.Counter // copies healed by AutoRepair
	Deferred        stats.Counter // divergences still moving at recheck
}

// IntegrityKind labels one entry of the cluster integrity log.
type IntegrityKind int

// Integrity event kinds.
const (
	// IntegrityFinding: a scrub (background or offline repair pass)
	// flagged a damaged or divergent copy.
	IntegrityFinding IntegrityKind = iota
	// IntegrityReadRepair: a client read detected a damaged extent on the
	// primary and was served from a replica.
	IntegrityReadRepair
	// IntegrityEIO: a read failed because no healthy copy existed.
	IntegrityEIO
	// IntegrityRepaired: a damaged or divergent copy was overwritten with
	// healthy data (scrub repair or read-repair heal).
	IntegrityRepaired
)

// IntegrityEvent records one damage-related event for time-to-detect /
// time-to-repair accounting. OSD is the copy's holder (-1 when the event
// has no single holder).
type IntegrityEvent struct {
	At   sim.Time
	OSD  int
	OID  string
	Kind IntegrityKind
}

// noteIntegrity appends to the integrity log. Damage-free runs never
// append, so the log costs nothing when nothing is wrong.
func (c *Cluster) noteIntegrity(at sim.Time, osdID int, oid string, kind IntegrityKind) {
	c.integrity = append(c.integrity, IntegrityEvent{At: at, OSD: osdID, OID: oid, Kind: kind})
}

// IntegrityEvents returns the integrity log in event order.
func (c *Cluster) IntegrityEvents() []IntegrityEvent { return c.integrity }

// scrubState is the scheduler's runtime state.
type scrubState struct {
	stopped bool
	tokens  *sim.Semaphore
	// nextFree is the throttle's reservation horizon: each deep read books
	// the slot [nextFree, nextFree+size/budget) before sleeping until its
	// start, so concurrent PG scrubs serialize their budget consumption.
	nextFree sim.Time
	// orderHash folds every (object, time) scrub visit into one FNV-1a
	// value — the determinism pin: two runs of the same seed must agree.
	orderHash uint64
	// readTrace, when set (tests), observes every throttled deep read.
	readTrace func(at sim.Time, bytes int64)
	stats     ScrubStats
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (s *scrubState) noteOrder(at sim.Time, oid string) {
	h := s.orderHash
	for i := 0; i < len(oid); i++ {
		h = (h ^ uint64(oid[i])) * fnvPrime
	}
	v := uint64(at)
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	s.orderHash = h
}

// startScrub wires the scheduler; called from New when Interval > 0.
func (c *Cluster) startScrub() {
	maxPGs := c.Params.Scrub.MaxConcurrentPGs
	if maxPGs <= 0 {
		maxPGs = 1
	}
	s := &scrubState{orderHash: fnvOffset}
	s.tokens = sim.NewSemaphore(c.K, "scrub.tokens", int64(maxPGs))
	c.scrub = s
	c.K.Go("scrub.sched", c.scrubLoop)
}

// StopScrub shuts the scheduler down: the round loop and any in-flight
// per-PG scrubs exit at their next step. Required before draining the
// kernel with Run(Forever). Safe to call when scrubbing is off.
func (c *Cluster) StopScrub() {
	if c.scrub != nil {
		c.scrub.stopped = true
	}
}

// ScrubStats returns live scheduler counters (zero value when off).
func (c *Cluster) ScrubStats() *ScrubStats {
	if c.scrub == nil {
		return &ScrubStats{}
	}
	return &c.scrub.stats
}

// ScrubOrderHash returns the determinism pin over every scrub visit; two
// runs with identical seeds and parameters must return identical hashes.
func (c *Cluster) ScrubOrderHash() uint64 { //afvet:allow unused scrubsched_test.go pins the scrub visit order through it
	if c.scrub == nil {
		return 0
	}
	return c.scrub.orderHash
}

// SetScrubReadTrace installs a test observer for throttled deep reads.
func (c *Cluster) SetScrubReadTrace(fn func(at sim.Time, bytes int64)) { //afvet:allow unused scrubsched_test.go checks the deep-read throttle through it
	if c.scrub != nil {
		c.scrub.readTrace = fn
	}
}

// scrubLoop is the scheduler process: one scrub round per interval, rounds
// never overlapping (a long round delays the next, as in Ceph).
func (c *Cluster) scrubLoop(p *sim.Proc) {
	for {
		p.Sleep(c.Params.Scrub.Interval)
		if c.scrub.stopped {
			return
		}
		c.scrubRound(p)
	}
}

// scrubRound snapshots the object population, buckets it by PG, and scrubs
// each PG in its own process bounded by the MaxConcurrentPGs tokens.
func (c *Cluster) scrubRound(p *sim.Proc) {
	s := c.scrub
	s.stats.Rounds.Inc()
	byPG := make([][]string, c.Params.PGs)
	for _, n := range c.objectNames() {
		pg := crush.ObjectToPG(n, c.Params.PGs)
		byPG[pg] = append(byPG[pg], n) // per-PG lists inherit the sort
	}
	done := sim.NewWaitGroup(c.K)
	for id, oids := range byPG {
		if len(oids) == 0 {
			continue
		}
		pg := uint32(id)
		done.Add(1)
		c.K.Go(fmt.Sprintf("scrub.pg%d", pg), func(pp *sim.Proc) {
			defer done.Done()
			s.tokens.Acquire(pp, 1)
			defer s.tokens.Release(1)
			if s.stopped {
				return
			}
			s.stats.PGsScrubbed.Inc()
			for _, oid := range oids {
				if s.stopped {
					return
				}
				c.scrubObject(pp, pg, oid)
			}
		})
	}
	done.Wait(p)
}

// memberSnap is one up member's view of an object during a scrub.
type memberSnap struct {
	id int
	st filestore.ObjectState
	ok bool
}

// captureObject exports the object from every up member of its set.
func (c *Cluster) captureObject(oid string, want []int) []memberSnap {
	var ms []memberSnap
	for _, id := range want {
		if c.down[id] || c.osds[id].Crashed() {
			continue
		}
		st, ok := c.osds[id].FileStore().ExportObject(oid)
		ms = append(ms, memberSnap{id: id, st: st, ok: ok})
	}
	return ms
}

// snapsEqual reports whether two captures of the same member set are
// identical — nothing moved between them.
func snapsEqual(a, b []memberSnap) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].id != b[i].id || a[i].ok != b[i].ok ||
			a[i].st.Size != b[i].st.Size || a[i].st.Version != b[i].st.Version ||
			a[i].st.Damaged != b[i].st.Damaged || !sameStamps(a[i].st.Stamps, b[i].st.Stamps) {
			return false
		}
	}
	return true
}

// snapsDiverged reports whether the up members disagree on metadata (size,
// version) or on the per-extent stamps — in this model the stamps are the
// data, so the stamp compare is the checksum verify.
func snapsDiverged(ms []memberSnap) bool {
	for i := 1; i < len(ms); i++ {
		if ms[i].ok != ms[0].ok || ms[i].st.Size != ms[0].st.Size || ms[i].st.Version != ms[0].st.Version ||
			!sameStamps(ms[i].st.Stamps, ms[0].st.Stamps) {
			return true
		}
	}
	return false
}

// scrubObject deep-scrubs one object: yield to client I/O, capture the
// member states, charge the checksum reads through the throttle, and
// classify. Damage flags are findings immediately (writes never set them);
// version/stamp divergence is rechecked after a settle delay so in-flight
// writes are never reported — under a clean cluster the scrub stays silent
// no matter the load.
func (c *Cluster) scrubObject(p *sim.Proc, pg uint32, oid string) {
	s := c.scrub
	want := c.cmap.PGToOSDs(pg, c.pol.Width())
	primary := -1
	for _, id := range want {
		if !c.down[id] && !c.osds[id].Crashed() {
			primary = id
			break
		}
	}
	if primary < 0 {
		return // whole set down: nothing reachable to scrub
	}
	// Head-of-line yield: client ops queued on the acting primary go
	// first. Bounded, so a saturated OSD cannot starve scrub forever.
	for i := 0; i < 8; i++ {
		d := c.osds[primary].OpWQ()
		if d.QueueLen()+d.PendingLen() == 0 {
			break
		}
		s.stats.Yields.Inc()
		p.Sleep(500 * sim.Microsecond)
		if s.stopped {
			return
		}
	}
	s.noteOrder(p.Now(), oid)
	s.stats.ObjectsScrubbed.Inc()
	c.osds[primary].LogScrub(p)

	first := c.captureObject(oid, want)
	if len(first) == 0 {
		return
	}
	// The checksum verify reads every up copy end to end, within the
	// bandwidth budget.
	for _, m := range first {
		if !m.ok {
			continue
		}
		size := m.st.Size
		if size <= 0 {
			size = 4096
		}
		c.scrubRead(p, m.id, oid, size)
		if s.stopped {
			return
		}
	}

	confirmed := false
	for _, m := range first {
		if m.ok && m.st.Damaged {
			confirmed = true
			s.stats.Findings.Inc()
			c.noteIntegrity(p.Now(), m.id, oid, IntegrityFinding)
		}
	}
	if !confirmed && snapsDiverged(first) {
		// Could be rot, could be a write in flight: look again after the
		// settle delay and only report what held still.
		settle := c.Params.Scrub.SettleDelay
		if settle <= 0 {
			settle = 2 * sim.Millisecond
		}
		p.Sleep(settle)
		if s.stopped {
			return
		}
		second := c.captureObject(oid, want)
		if !snapsEqual(first, second) || !snapsDiverged(second) {
			s.stats.Deferred.Inc()
			return // still moving (or converged): next round's problem
		}
		confirmed = true
		s.stats.Findings.Inc()
		c.noteIntegrity(p.Now(), -1, oid, IntegrityFinding)
	}
	if confirmed && c.Params.Scrub.AutoRepair {
		s.stats.Repairs.Add(uint64(c.repairObject(p, oid)))
	}
}

// scrubRead charges one deep-scrub copy read against the bandwidth budget:
// the slot is reserved atomically, then the process sleeps until its
// reservation starts, so concurrent PG scrubs never exceed the budget in
// any window.
func (c *Cluster) scrubRead(p *sim.Proc, id int, oid string, size int64) {
	s := c.scrub
	if bps := c.Params.Scrub.BytesPerSec; bps > 0 {
		now := p.Now()
		start := s.nextFree
		if start < now {
			start = now
		}
		s.nextFree = start + sim.Time(size*int64(sim.Second)/bps)
		if start > now {
			p.Sleep(start - now)
		}
		if s.stopped {
			return
		}
	}
	if s.readTrace != nil {
		s.readTrace(p.Now(), size)
	}
	s.stats.DeepReads.Inc()
	s.stats.BytesRead.Add(uint64(size))
	c.osds[id].FileStore().Read(p, oid, 0, size)
}
