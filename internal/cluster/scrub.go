package cluster

import (
	"fmt"
	"slices"

	"repro/internal/crush"
	"repro/internal/filestore"
	"repro/internal/sim"
)

// Inconsistency is one scrub finding.
type Inconsistency struct {
	OID    string
	PG     uint32
	Detail string
}

// ScrubAll is the cluster's consistency check (Ceph's deep scrub, run at
// host level after the simulation quiesces): every object known to any
// backend must live on exactly the CRUSH-computed replica set, and all
// replicas must agree on the object's version (mutation count). A clean
// scrub after a randomized workload shows that the optimization profiles
// preserved replication semantics; a tampered store must be caught. All
// object queries go to each OSD's filestore, whose object table both
// backends share, so both backends are scrubbed through the same door.
// Its findings come grouped by object, in sorted oid order.
func (c *Cluster) ScrubAll() []Inconsistency {
	var out []Inconsistency
	var versions []uint64
	for _, oid := range c.ObjectNames() {
		pg := crush.ObjectToPG(oid, c.Params.PGs)
		want := c.CrushSet(pg)
		versions = versions[:0]
		for id, o := range c.osds {
			v := o.FileStore().ObjectVersion(oid)
			inSet := slices.Contains(want, id)
			if v > 0 && !inSet {
				out = append(out, Inconsistency{OID: oid, PG: pg,
					Detail: fmt.Sprintf("stray copy on osd.%d", id)})
			}
			if inSet {
				if v == 0 {
					out = append(out, Inconsistency{OID: oid, PG: pg,
						Detail: fmt.Sprintf("missing replica on osd.%d", id)})
				}
				versions = append(versions, v)
			}
		}
		for i := 1; i < len(versions); i++ {
			if versions[i] != versions[0] {
				out = append(out, Inconsistency{OID: oid, PG: pg,
					Detail: fmt.Sprintf("version mismatch %v", versions)})
				break
			}
		}
		// Deep scrub: with VerifyData on, the stored extent stamps are the
		// data; replicas whose stamps diverge from the first up in-set
		// member hold silently corrupted bits even when versions agree.
		if c.Params.OSD.FStore.VerifyData {
			ref, refID := filestore.ObjectState{}, -1
			for _, id := range want {
				if c.down[id] {
					continue
				}
				st, ok := c.osds[id].FileStore().ExportObject(oid)
				if !ok {
					continue
				}
				if st.Damaged {
					out = append(out, Inconsistency{OID: oid, PG: pg,
						Detail: fmt.Sprintf("checksum mismatch on osd.%d", id)})
					c.noteIntegrity(c.K.Now(), id, oid, IntegrityFinding)
				}
				if refID < 0 {
					ref, refID = st, id
					continue
				}
				if !sameStamps(ref.Stamps, st.Stamps) {
					out = append(out, Inconsistency{OID: oid, PG: pg,
						Detail: fmt.Sprintf("data divergence between osd.%d and osd.%d", refID, id)})
				}
			}
		}
	}
	return out
}

// ObjectNames returns the sorted union of the objects every OSD's backend
// holds: every store's names in one slice, sorted, duplicates dropped.
func (c *Cluster) ObjectNames() []string {
	n := 0
	for _, o := range c.osds {
		n += o.FileStore().ObjectCount()
	}
	names := make([]string, 0, n)
	for _, o := range c.osds {
		names = o.FileStore().AppendObjectNames(names)
	}
	slices.Sort(names)
	return slices.Compact(names)
}

func sameStamps(a, b map[int64]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for off, v := range a { //afvet:allow determinism order-independent equality check
		if b[off] != v {
			return false
		}
	}
	return true
}

// Repair heals what ScrubAll finds, modelling Ceph's `pg repair`: for each
// inconsistent object the healed state is the stamp-wise union of every up
// in-set copy's trustworthy extents (damaged copies contribute the extents
// the rot did not touch), pushed over the network to every divergent
// member; stray copies outside the CRUSH set are deleted.
// Quiescent-cluster wrapper around RepairIn. Returns the number of copies
// healed.
func (c *Cluster) Repair() int {
	var n int
	c.K.Go("scrub.repair", func(p *sim.Proc) { n = c.RepairIn(p) })
	c.K.Run(sim.Forever)
	return n
}

// RepairIn performs the repair from process context. ScrubAll's findings
// come grouped by object in sorted oid order, so each object is repaired
// once, in that order.
func (c *Cluster) RepairIn(p *sim.Proc) int {
	inc := c.ScrubAll()
	healed := 0
	for i, f := range inc {
		if i == 0 || inc[i-1].OID != f.OID {
			healed += c.repairObject(p, f.OID, c.CrushSet(f.PG))
		}
	}
	return healed
}

// repairObject converges every copy of one object: strays outside the
// CRUSH set are deleted, then the union of the up in-set copies' clean
// extents is pushed to every member that diverges from it. Damaged copies
// are cleansed before entering the union — their rotten extents contribute
// nothing, but a clean extent (say, an acked write that landed while the
// copy was already rotten elsewhere) is never discarded. The authoritative
// read source is the clean copy with the highest version; with no fully
// clean copy the object is unrepairable and left for the EIO path. Used by
// RepairIn (offline repair) and the background scrub scheduler
// (AutoRepair), each of which passes the object's CRUSH set as want.
// Returns copies healed.
func (c *Cluster) repairObject(p *sim.Proc, oid string, want []int) int {
	healed := 0
	for id, o := range c.osds {
		if !slices.Contains(want, id) && o.FileStore().DeleteObject(oid) {
			healed++
		}
	}
	ms := c.captureObject(oid, want)
	target, contributed := cleanUnion(ms)
	auth := -1
	var best uint64
	for _, m := range ms {
		if m.ok && !m.st.Damaged && (auth < 0 || m.st.Version > best) {
			best, auth = m.st.Version, m.id
		}
	}
	if auth < 0 || contributed < c.pol.DataShards() {
		// No clean copy survives, or (EC) fewer than k clean shards: the
		// object cannot be rebuilt; leave it for the EIO path.
		return healed
	}
	size := target.Size
	if size <= 0 {
		size = 4096
	}
	extra := c.pol.DataShards() - 1
	for _, m := range ms {
		if m.ok && !m.st.Damaged && m.st.Version == target.Version && sameStamps(m.st.Stamps, target.Stamps) {
			continue
		}
		// Reconstruction reads k-1 copies beyond the authoritative one
		// (once: later pushes reuse the assembled stripe) and pays the
		// decode CPU on the authoritative member's node.
		for _, mm := range ms {
			if extra == 0 {
				break
			}
			if mm.id != auth && mm.usable() {
				c.osds[mm.id].FileStore().Read(p, oid, 0, size)
				extra--
			}
		}
		c.decode(p, auth, size)
		// Read the authoritative copy, push it, install.
		c.osds[auth].FileStore().Read(p, oid, 0, size)
		p.Sleep(c.pushTime(size))
		// Re-merge against the member's live state at install time: a
		// client write acked during the push above must survive the heal.
		st := target
		if live, ok := c.osds[m.id].FileStore().ExportObject(oid); ok {
			st = filestore.UnionState(live.Cleansed(), target)
		}
		c.osds[m.id].FileStore().IngestObject(p, oid, st)
		c.noteIntegrity(p.Now(), m.id, oid, IntegrityRepaired)
		healed++
	}
	return healed
}

// ScrubPGLogs verifies the PG-log recovery invariants on every OSD: per-PG
// sequences strictly increase with no gaps past the trim horizon.
func (c *Cluster) ScrubPGLogs() []string {
	var out []string
	for id, o := range c.osds {
		for _, v := range o.PGLogViolations() {
			out = append(out, fmt.Sprintf("osd.%d: %s", id, v))
		}
	}
	return out
}
