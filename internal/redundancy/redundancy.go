// Package redundancy is the policy seam between the cluster/OSD engine and
// the redundancy scheme protecting each pool. A Policy owns the questions
// the data path must not hard-code:
//
//   - fan-out: how many placement targets a PG needs (Width), and how many
//     bytes each target stores per logical write (ShardLen);
//   - ack quorum: a write is acked only after every *up* member of the set
//     commits, so MinAvailable is the floor below which the pool stops
//     serving (1 surviving copy for replication, k shards for RS(k,m));
//   - reads: a read needs DataShards() usable answers, the primary's own
//     first: one clean copy under replication (the k = 1 code), k shards
//     under RS(k,m), reconstructed when the gathered set is not the
//     canonical data set (DecodeCost > 0 charges the CPU);
//   - repair planning: reconstruction needs MinAvailable clean
//     contributors, where replication needs one.
//
// The engine asks only these questions, never which family a policy
// belongs to, so reads, writes and recovery each take one path for both.
//
// Two implementations exist: Replicated (N full copies — the paper's
// testbed runs 3x) and EC (Reed-Solomon RS(k,m) striping: k data + m
// parity shards, any k of k+m recover the stripe). The replicated policy
// returns exactly the values the pre-seam code hard-coded, so moving the
// data path behind the seam is bit-identical for every existing
// configuration.
//
// Stamp-model note: the simulator's data is per-extent verification stamps,
// not bytes. All Width() members of an EC pool store the *same* stamp at
// the same logical offset — a shard is modelled by its byte accounting
// (ShardLen per member, EncodeCost/DecodeCost CPU), not by distinct
// contents. That keeps the scrub stamp-compare, the stamp-union repair
// primitives and the PG-log machinery working unchanged across both
// policies, which is precisely the refactor's goal.
package redundancy

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cpumodel"
	"repro/internal/sim"
)

// Policy answers every redundancy question the data path asks. Implementations
// must be pure value types: methods are called from simulation processes and
// must not allocate per-op or consult any randomness.
type Policy interface {
	// Width is the number of distinct OSDs a PG places on (replicas, or
	// k+m shards).
	Width() int
	// DataShards is the number of shards needed to serve a read: 1 for
	// replication, k for RS(k,m).
	DataShards() int
	// ParityShards is the redundancy beyond the data: N-1 extra copies for
	// replication, m parity shards for RS(k,m). Width-DataShards... for
	// replication DataShards is 1, so this equals the copies that may be
	// lost without losing data — the same meaning as m.
	ParityShards() int
	// ShardLen is the bytes one member stores for a logical write of n
	// bytes: n for replication, ceil(n/k) for RS(k,m).
	ShardLen(n int64) int64
	// EncodeCost is the CPU charged at the primary to produce the parity
	// for a logical write of n bytes (zero for replication).
	EncodeCost(n int64) sim.Time
	// DecodeCost is the CPU charged to reconstruct `lost` missing shards
	// of a logical extent of n bytes from surviving ones (zero for
	// replication — a copy is served verbatim).
	DecodeCost(n int64, lost int) sim.Time
	// StorageOverhead is raw bytes stored per logical byte: N for N-way
	// replication, (k+m)/k for RS(k,m).
	StorageOverhead() float64
	// String renames the policy in pool syntax ("rep3", "ec4+2").
	String() string
}

// Replicated is N-way full-copy replication. The zero value behaves as the
// engine did before the seam existed for every per-write question
// (identity ShardLen, zero codec cost); Width/StorageOverhead need N.
type Replicated struct {
	N int
}

// Width returns the copy count.
func (r Replicated) Width() int { return r.N }

// DataShards returns 1: any single copy serves a read.
func (Replicated) DataShards() int { return 1 }

// ParityShards returns the copies that may be lost without data loss.
func (r Replicated) ParityShards() int { return r.N - 1 }

// ShardLen is the identity: every copy stores the full write.
func (Replicated) ShardLen(n int64) int64 { return n }

// EncodeCost is zero: replication computes nothing.
func (Replicated) EncodeCost(int64) sim.Time { return 0 }

// DecodeCost is zero: a surviving copy is served verbatim.
func (Replicated) DecodeCost(int64, int) sim.Time { return 0 }

// StorageOverhead returns N.
func (r Replicated) StorageOverhead() float64 { return float64(r.N) }

// String returns "repN".
func (r Replicated) String() string { return fmt.Sprintf("rep%d", r.N) }

// EC is Reed-Solomon RS(k,m): K data shards, M parity shards, any K of
// K+M reconstruct.
type EC struct {
	K, M int
}

// Width returns k+m.
func (e EC) Width() int { return e.K + e.M }

// DataShards returns k.
func (e EC) DataShards() int { return e.K }

// ParityShards returns m.
func (e EC) ParityShards() int { return e.M }

// ShardLen returns ceil(n/k): each member stores one stripe fragment.
func (e EC) ShardLen(n int64) int64 {
	if n <= 0 {
		return n
	}
	return (n + int64(e.K) - 1) / int64(e.K)
}

// EncodeCost charges the GF arithmetic producing m parity shards.
func (e EC) EncodeCost(n int64) sim.Time {
	return cpumodel.ECEncodeCost(n, e.K, e.M)
}

// DecodeCost charges the reconstruction of `lost` shards from k survivors.
func (e EC) DecodeCost(n int64, lost int) sim.Time {
	return cpumodel.ECDecodeCost(n, e.K, lost)
}

// StorageOverhead returns (k+m)/k.
func (e EC) StorageOverhead() float64 { return float64(e.K+e.M) / float64(e.K) }

// String returns "ecK+M".
func (e EC) String() string { return fmt.Sprintf("ec%d+%d", e.K, e.M) }

// Parse decodes pool syntax: "repN" (N-way replication) or "ecK+M"
// (RS(k,m)). The empty string is not a pool.
func Parse(s string) (Policy, error) {
	switch {
	case strings.HasPrefix(s, "rep"):
		n, err := strconv.Atoi(s[len("rep"):])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("redundancy: bad pool %q (want repN, N >= 1)", s)
		}
		return Replicated{N: n}, nil
	case strings.HasPrefix(s, "ec"):
		body := s[len("ec"):]
		i := strings.IndexByte(body, '+')
		if i < 0 {
			return nil, fmt.Errorf("redundancy: bad pool %q (want ecK+M)", s)
		}
		k, errK := strconv.Atoi(body[:i])
		m, errM := strconv.Atoi(body[i+1:])
		if errK != nil || errM != nil || k < 2 || m < 1 {
			return nil, fmt.Errorf("redundancy: bad pool %q (want ecK+M, K >= 2, M >= 1)", s)
		}
		return EC{K: k, M: m}, nil
	default:
		return nil, fmt.Errorf("redundancy: unknown pool %q (want repN or ecK+M)", s)
	}
}
