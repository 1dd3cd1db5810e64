// Package crush implements CRUSH-style pseudo-random, weighted, stable data
// placement with straw2 buckets (Weil et al., and the straw2 revision used
// by modern Ceph). Objects hash to placement groups (PGs); PGs map to an
// ordered set of OSDs subject to failure-domain separation at the host
// level. The mapping is a pure function of (map, pg, replica), so every
// client and OSD computes placement independently — the property that lets
// Ceph avoid a metadata server on the data path.
package crush

import (
	"fmt"
	"math"
)

// OSDInfo describes one placement target.
type OSDInfo struct {
	ID     int
	Weight float64 // relative capacity; must be > 0 to receive data
}

// Host is a failure domain containing OSDs.
type Host struct {
	Name string
	OSDs []OSDInfo
}

// Map is an immutable cluster description. Build one with NewMap.
type Map struct {
	hosts []Host
	// flattened lookup
	totalOSDs int
}

// NewMap validates and returns a placement map.
func NewMap(hosts []Host) (*Map, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("crush: map needs at least one host")
	}
	seen := map[int]bool{}
	total := 0
	for _, h := range hosts {
		if len(h.OSDs) == 0 {
			return nil, fmt.Errorf("crush: host %q has no OSDs", h.Name)
		}
		for _, o := range h.OSDs {
			if o.Weight < 0 {
				return nil, fmt.Errorf("crush: osd.%d has negative weight", o.ID)
			}
			if seen[o.ID] {
				return nil, fmt.Errorf("crush: duplicate osd id %d", o.ID)
			}
			seen[o.ID] = true
			total++
		}
	}
	m := &Map{hosts: hosts, totalOSDs: total}
	return m, nil
}

// NumOSDs returns the number of OSDs in the map.
func (m *Map) NumOSDs() int { return m.totalOSDs }

// hash64 mixes inputs into a 64-bit value (SplitMix64 finalizer over a
// simple combination; CRUSH uses rjenkins, any good mixer works here).
func hash64(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit converts a hash to a float in (0,1].
func unit(h uint64) float64 {
	return (float64(h>>11) + 1) / (1 << 53)
}

// straw2Host draws a straw for each host and returns the winner's index.
// straw2 scales draws by log-weights so that changing one item's weight
// only moves data to/from that item.
func (m *Map) straw2Host(pg uint64, trial uint64) int {
	best := -1
	bestDraw := math.Inf(-1)
	for i, h := range m.hosts {
		w := 0.0
		for _, o := range h.OSDs {
			w += o.Weight
		}
		if w <= 0 {
			continue
		}
		u := unit(hash64(pg, uint64(i)+0x5bd1, trial))
		draw := math.Log(u) / w
		if draw > bestDraw {
			bestDraw = draw
			best = i
		}
	}
	return best
}

// straw2OSD picks an OSD within a host.
func (m *Map) straw2OSD(pg uint64, trial uint64, host int) int {
	best := -1
	bestDraw := math.Inf(-1)
	for _, o := range m.hosts[host].OSDs {
		if o.Weight <= 0 {
			continue
		}
		u := unit(hash64(pg, uint64(o.ID)+0xa24b, trial+0x7f4a))
		draw := math.Log(u) / o.Weight
		if draw > bestDraw {
			bestDraw = draw
			best = o.ID
		}
	}
	return best
}

// PGToOSDs returns the ordered OSD set for a PG: `replicas` distinct OSDs on
// distinct hosts (primary first). If the map has fewer hosts than replicas,
// host separation is relaxed after the distinct hosts run out.
func (m *Map) PGToOSDs(pg uint32, replicas int) []int {
	if replicas < 1 {
		panic("crush: replicas must be >= 1")
	}
	result := make([]int, 0, replicas)
	usedHosts := make(map[int]bool)
	usedOSDs := make(map[int]bool)
	relaxHosts := replicas > len(m.hosts)
	for r := 0; len(result) < replicas; r++ {
		if r > 64*replicas {
			// Give up on separation constraints entirely (tiny maps).
			relaxHosts = true
		}
		if r > 128*replicas {
			break
		}
		h := m.straw2Host(uint64(pg), uint64(r))
		if h < 0 {
			break
		}
		if usedHosts[h] && !relaxHosts {
			continue
		}
		o := m.straw2OSD(uint64(pg), uint64(r), h)
		if o < 0 || usedOSDs[o] {
			continue
		}
		usedHosts[h] = true
		usedOSDs[o] = true
		result = append(result, o)
	}
	return result
}

// ObjectToPG hashes an object name into one of pgCount placement groups.
func ObjectToPG(object string, pgCount uint32) uint32 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(object); i++ {
		h ^= uint64(object[i])
		h *= 0x100000001b3
	}
	h = hash64(h, 0x9177, 0)
	return uint32(h % uint64(pgCount))
}

// Primary returns the primary OSD for a PG.
func (m *Map) Primary(pg uint32, replicas int) int {
	set := m.PGToOSDs(pg, replicas)
	if len(set) == 0 {
		return -1
	}
	return set[0]
}
