package kvstore

import (
	"bytes"
	"hash/maphash"
	"math"
	"slices"
)

// hashSeed seeds the key hash. The hash only picks an index slot: entries
// keep their insertion order and tables are sorted by key bytes, so no
// simulated output depends on it.
var hashSeed = maphash.MakeSeed()

// entry is one key's version in a table. It holds no pointer: its key is
// the table's arena bytes [off, off+klen), and of the value only its length
// is kept.
type entry struct {
	hash      uint32
	off, klen uint32
	size      uint32
	tombstone bool
}

// table is a set of entries that holds no pointers, so the GC has nothing
// in it to scan and the store keeps no caller's string. Key bytes are
// copied into an append-only arena, and an open-addressing index of entry
// numbers finds a key. The active memtable is a table with an index; an
// SSTable is a frozen table, its entries sorted by key bytes and its index
// dropped.
type table struct {
	arena   []byte
	entries []entry
	index   []uint32 // entry number + 1 per slot, 0 if free; a power of two, at most half full
	bytes   int64    // the entries' on-disk footprint
}

// newTable returns an empty memtable with room for n entries and keyBytes
// bytes of keys.
func newTable(n, keyBytes int) *table {
	slots := 8
	for slots < 2*n {
		slots <<= 1
	}
	return &table{
		arena:   make([]byte, 0, keyBytes),
		entries: make([]entry, 0, n),
		index:   make([]uint32, slots),
	}
}

func (t *table) key(e entry) []byte { return t.arena[e.off : e.off+e.klen] }

// keyOff returns the arena offset of a new key of n bytes.
func (t *table) keyOff(n int) uint32 {
	if len(t.arena)+n > math.MaxUint32 {
		panic("kvstore: table keys exceed 4 GiB")
	}
	return uint32(len(t.arena))
}

// upsert returns key's entry in a memtable, adding an empty one if there is
// none; found reports whether there was. It hashes the key once and probes
// once. The entry stays valid until the next upsert.
func (t *table) upsert(key string) (e *entry, found bool) {
	h := uint32(maphash.String(hashSeed, key))
	mask := uint32(len(t.index) - 1)
	i := h & mask
	for ; t.index[i] != 0; i = (i + 1) & mask {
		e := &t.entries[t.index[i]-1]
		if e.hash == h && string(t.key(*e)) == key {
			return e, true
		}
	}
	t.entries = append(t.entries, entry{hash: h, off: t.keyOff(len(key)), klen: uint32(len(key))})
	t.arena = append(t.arena, key...)
	t.index[i] = uint32(len(t.entries))
	if 2*len(t.entries) > len(t.index) {
		t.grow()
	}
	return &t.entries[len(t.entries)-1], false
}

// grow doubles the index and re-slots every entry by its stored hash.
func (t *table) grow() {
	t.index = make([]uint32, 2*len(t.index))
	mask := uint32(len(t.index) - 1)
	for n, e := range t.entries {
		i := e.hash & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = uint32(n + 1)
	}
}

// freeze turns a memtable into an SSTable: it sorts the entries by key
// bytes in place, sharing the arena, and drops the index.
func (t *table) freeze() {
	t.index = nil
	slices.SortFunc(t.entries, func(a, b entry) int { return bytes.Compare(t.key(a), t.key(b)) })
}
