package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof writes:
// just the fields needed to turn each CPU sample into a stack of function
// names and its CPU nanoseconds. Field numbers follow
// github.com/google/pprof/proto/profile.proto.

// sample is one decoded profile sample.
type sample struct {
	stack []string // function names, innermost (leaf) first
	cpuNS int64
}

// layers are the names host CPU is attributed to, in report order.
var layers = []string{
	"sim", "sched", "gc", "malloc", "osd", "store", "kvstore", "netsim",
	"device", "cpumodel", "cluster", "client", "obs", "other",
}

// pkgLayer maps each repro package to its layer.
var pkgLayer = map[string]string{
	"repro/internal/sim":        "sim",
	"repro/internal/osd":        "osd",
	"repro/internal/core":       "osd",
	"repro/internal/oslog":      "osd",
	"repro/internal/store":      "store",
	"repro/internal/filestore":  "store",
	"repro/internal/journal":    "store",
	"repro/internal/kvstore":    "kvstore",
	"repro/internal/netsim":     "netsim",
	"repro/internal/device":     "device",
	"repro/internal/cpumodel":   "cpumodel",
	"repro/internal/cluster":    "cluster",
	"repro/internal/crush":      "cluster",
	"repro/internal/redundancy": "cluster",
	"repro/internal/fault":      "cluster",
	"repro/internal/workload":   "client",
	"repro/afceph":              "client",
	"repro/cmd/afperf":          "client",
	"main":                      "client",
	"repro/internal/stats":      "obs",
	"repro/internal/metrics":    "obs",
	"repro/internal/trace":      "obs",
	"repro/internal/rng":        "obs",
}

// Go runtime functions by the layer they stand for, matched as name
// prefixes after "runtime.". GC is checked first (an allocation that
// assists the collector is GC work), then allocation, then the channel
// and scheduler code that moves the baton between proc goroutines.
var runtimeLayers = []struct {
	layer    string
	prefixes []string
}{
	{"gc", []string{
		"gc", "(*gc", "_GC", "scanobject", "scanblock", "scanstack", "scanframeworker",
		"scanConservative", "greyobject", "markroot", "bgsweep", "sweepone",
		"(*sweepLocked)", "(*mspan).sweep", "bgscavenge", "(*scavengerState)",
		"(*pageAlloc).scavenge", "wbBufFlush", "(*wbBuf)", "findObject",
	}},
	{"malloc", []string{
		"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
		"makechan", "rawstring", "rawbyteslice", "rawruneslice", "(*mcache)",
		"(*mcentral)", "(*mheap).alloc", "nextFreeFast", "(*mspan).nextFreeIndex",
		"heapSetType", "profilealloc", "mProf_Malloc",
	}},
	{"sched", []string{
		"chansend", "chanrecv", "closechan", "chanparkcommit", "selectgo", "selectnb",
		"send", "recv", "(*waitq)", "acquireSudog", "releaseSudog",
		"gopark", "goready", "ready", "park_m", "schedule", "findRunnable",
		"execute", "gogo", "mcall", "gosched", "gopreempt", "newproc",
		"goexit", "casgstatus", "runqget", "runqput", "runqgrab", "runqsteal",
		"globrunq", "stealWork", "wakep", "startm", "stopm", "mPark", "handoffp",
		"acquirep", "releasep", "notesleep", "notewakeup", "semacquire", "semrelease",
		"netpoll", "checkTimers", "resetspinning", "injectglist", "futexsleep",
		"futexwakeup", "osyield", "usleep", "sysmon", "retake", "preemptone",
	}},
}

// funcPackage returns the import path of a symbolized function name such as
// "repro/internal/osd.(*OSD).processWrite" or "runtime.chansend1".
func funcPackage(name string) string {
	if i := strings.IndexAny(name, "[("); i >= 0 {
		name = name[:i] // generic type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") ||
		strings.HasPrefix(pkg, "runtime/internal/")
}

// layerOf attributes one stack (leaf first). The run of runtime frames at
// the leaf decides first: its innermost GC, allocation or scheduler
// function names the layer. Otherwise the sample belongs to the layer of
// its innermost repro frame, or to "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if !isRuntime(pkg) {
			break
		}
		name := strings.TrimPrefix(fn[len(pkg):], ".") // "chansend1", "(*mcache).refill"
		for _, rl := range runtimeLayers {
			for _, p := range rl.prefixes {
				if strings.HasPrefix(name, p) {
					return rl.layer
				}
			}
		}
	}
	for _, fn := range stack {
		if l, ok := pkgLayer[funcPackage(fn)]; ok {
			return l
		}
	}
	return "other"
}

// attribute sums CPU nanoseconds by layer; every layer is present.
func attribute(samples []sample) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range samples {
		out[layerOf(s.stack)] += s.cpuNS
	}
	return out
}

// parseProfile decodes a gzipped CPU profile into samples.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type rawSample struct {
		locs   []uint64
		values []uint64 // int64 in the proto; CPU values are never negative
	}
	var (
		types     [][2]int64 // sample_type: (type, unit) string indexes
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
		strs      []string
	)
	err = forEachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := forEachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s rawSample
			err := forEachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forEachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return forEachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forEachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu/nanoseconds sample type")
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if cpu >= len(rs.values) {
			return nil, fmt.Errorf("sample has %d values, want more than %d", len(rs.values), cpu)
		}
		s := sample{cpuNS: int64(rs.values[cpu])}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// forEachField walks the fields of one protobuf message, passing each
// field's number with its varint value (wire types 0, 1 and 5) or its bytes
// (wire type 2).
func forEachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("profile: truncated fixed field")
			}
			if wire == 1 {
				v = binary.LittleEndian.Uint64(b)
			} else {
				v = uint64(binary.LittleEndian.Uint32(b))
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which runtime/pprof writes
// packed (as bytes) or one value at a time.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, u)
		b = b[n:]
	}
	return nil
}
