package redundancy

import (
	"testing"

	"repro/internal/cpumodel"
)

// TestReplicatedMatchesPreSeamValues pins the replicated policy to the
// exact values the data path hard-coded before the seam existed: identity
// shard length, zero codec cost. Any drift here breaks the bit-identity
// guarantee for every pre-existing golden figure.
func TestReplicatedMatchesPreSeamValues(t *testing.T) {
	r := Replicated{N: 3}
	if r.Width() != 3 || r.DataShards() != 1 || r.ParityShards() != 2 {
		t.Fatalf("rep3 shape wrong: %+v", r)
	}
	for _, n := range []int64{0, 1, 4096, 4<<20 - 1} {
		if r.ShardLen(n) != n {
			t.Fatalf("ShardLen(%d) = %d, want identity", n, r.ShardLen(n))
		}
	}
	if r.EncodeCost(1<<20) != 0 || r.DecodeCost(1<<20, 1) != 0 {
		t.Fatal("replication must charge zero codec CPU")
	}
	if r.StorageOverhead() != 3 {
		t.Fatalf("overhead = %v, want 3", r.StorageOverhead())
	}
	if r.String() != "rep3" {
		t.Fatalf("String = %q", r.String())
	}
}

func TestECShape(t *testing.T) {
	e := EC{K: 4, M: 2}
	if e.Width() != 6 || e.DataShards() != 4 || e.ParityShards() != 2 {
		t.Fatalf("ec4+2 shape wrong: %+v", e)
	}
	if e.ShardLen(4096) != 1024 || e.ShardLen(4097) != 1025 || e.ShardLen(1) != 1 || e.ShardLen(0) != 0 {
		t.Fatal("shard length rounding wrong")
	}
	if e.StorageOverhead() != 1.5 {
		t.Fatalf("overhead = %v, want 1.5", e.StorageOverhead())
	}
	if e.String() != "ec4+2" {
		t.Fatalf("String = %q", e.String())
	}
	// Codec costs delegate to the pinned cpumodel entries.
	if e.EncodeCost(4096) != cpumodel.ECEncodeCost(4096, 4, 2) {
		t.Fatal("EncodeCost does not match cpumodel")
	}
	if e.DecodeCost(4096, 2) != cpumodel.ECDecodeCost(4096, 4, 2) {
		t.Fatal("DecodeCost does not match cpumodel")
	}
}

func TestParse(t *testing.T) {
	good := map[string]string{
		"rep2":  "rep2",
		"rep3":  "rep3",
		"ec4+2": "ec4+2",
		"ec8+3": "ec8+3",
	}
	for in, want := range good {
		p, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if p.String() != want {
			t.Fatalf("Parse(%q) = %q", in, p.String())
		}
	}
	for _, bad := range []string{"", "rep0", "repX", "ec4", "ec1+2", "ec4+0", "ec4+x", "raid5"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}
