// Command crushtool inspects the CRUSH placement used by the simulated
// cluster: per-OSD PG distribution, host separation of replicas, and data
// movement when a host is removed.
//
// Usage:
//
//	crushtool -hosts 4 -osds-per-host 4 -pgs 1024 -replicas 2
//	crushtool -hosts 5 -remove-host 4     # show remap fraction
//	crushtool -hosts 3 -osds-per-host 2 -width 6   # validate EC-width placement
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/crush"
)

func buildMap(hosts, osdsPer int, skip int) (*crush.Map, error) {
	var hs []crush.Host
	id := 0
	for h := 0; h < hosts; h++ {
		host := crush.Host{Name: fmt.Sprintf("host%d", h)}
		for o := 0; o < osdsPer; o++ {
			if h != skip {
				host.OSDs = append(host.OSDs, crush.OSDInfo{ID: id, Weight: 1})
			}
			id++
		}
		if h != skip {
			hs = append(hs, host)
		}
	}
	return crush.NewMap(hs)
}

// widthReport summarizes a placement validation pass at a given set width
// (an EC pool's k+m, which may exceed the host count).
type widthReport struct {
	Short        []uint32 // PGs whose set came back under width (map too small)
	DupOSD       []uint32 // PGs whose set repeats an OSD (must never happen)
	MovedPrimary []uint32 // PGs whose primary differs from the replicas-width primary
	HostReuse    int      // PGs placing two set members on one host (expected when width > hosts)
}

// validateWidth checks every PG's width-wide placement: full-size sets,
// distinct OSDs, and a primary stable with the replicated pool's (an EC
// pool sharing a map with a replicated pool must not move primaries).
// Host reuse is counted, not flagged: CRUSH relaxes host separation by
// design once the distinct failure domains run out (an m-host map cannot
// host-separate more than m shards).
func validateWidth(m *crush.Map, pgs, width, replicas, osdsPer int) widthReport {
	var rep widthReport
	for pg := 0; pg < pgs; pg++ {
		set := m.PGToOSDs(uint32(pg), width)
		if len(set) < width {
			rep.Short = append(rep.Short, uint32(pg))
		}
		seen := map[int]bool{}
		hostsSeen := map[int]bool{}
		reused := false
		for _, o := range set {
			if seen[o] {
				rep.DupOSD = append(rep.DupOSD, uint32(pg))
			}
			seen[o] = true
			if hostsSeen[o/osdsPer] {
				reused = true
			}
			hostsSeen[o/osdsPer] = true
		}
		if reused {
			rep.HostReuse++
		}
		if len(set) > 0 && set[0] != m.Primary(uint32(pg), replicas) {
			rep.MovedPrimary = append(rep.MovedPrimary, uint32(pg))
		}
	}
	return rep
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is crushtool with its arguments and output streams as parameters; it
// returns the exit status: 0 on success, 1 when the map cannot be built or
// a -width validation finds a violation, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crushtool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		hosts    = fs.Int("hosts", 4, "number of hosts (failure domains)")
		osdsPer  = fs.Int("osds-per-host", 4, "OSDs per host")
		pgs      = fs.Int("pgs", 1024, "placement groups")
		replicas = fs.Int("replicas", 2, "replica count")
		width    = fs.Int("width", 0, "validate placement at this set width (an EC pool's k+m) and exit")
		remove   = fs.Int("remove-host", -1, "also compute remap fraction after removing this host index")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"hosts", *hosts}, {"osds-per-host", *osdsPer}, {"pgs", *pgs}, {"replicas", *replicas}} {
		if f.v < 1 {
			fmt.Fprintf(stderr, "crushtool: -%s is %d, want at least 1\n", f.name, f.v)
			return 2
		}
	}
	if *width < 0 {
		fmt.Fprintf(stderr, "crushtool: -width is %d, want 0 (off) or more\n", *width)
		return 2
	}
	if *remove != -1 && (*remove < 0 || *remove >= *hosts) {
		fmt.Fprintf(stderr, "crushtool: -remove-host is %d, want a host index in [0, %d)\n", *remove, *hosts)
		return 2
	}

	m, err := buildMap(*hosts, *osdsPer, -1)
	if err != nil {
		fmt.Fprintln(stderr, "crushtool:", err)
		return 1
	}

	if *width > 0 {
		rep := validateWidth(m, *pgs, *width, *replicas, *osdsPer)
		fmt.Fprintf(stdout, "width %d over %d hosts x %d OSDs, %d PGs:\n", *width, *hosts, *osdsPer, *pgs)
		fmt.Fprintf(stdout, "  host-separation relaxed (set reuses a host): %d/%d PGs\n", rep.HostReuse, *pgs)
		bad := false
		report := func(what string, pgs []uint32) {
			if len(pgs) == 0 {
				return
			}
			bad = true
			fmt.Fprintf(stdout, "  VIOLATION %s: %d PGs, first pg %d\n", what, len(pgs), pgs[0])
		}
		report("short set (map cannot satisfy width)", rep.Short)
		report("duplicate OSD in set", rep.DupOSD)
		report(fmt.Sprintf("primary moved vs %d-replica placement", *replicas), rep.MovedPrimary)
		if bad {
			return 1
		}
		fmt.Fprintln(stdout, "  ok: full-width sets, distinct OSDs, primaries stable")
		return 0
	}

	counts := make(map[int]int)
	primaries := make(map[int]int)
	sameHost := 0
	hostOf := func(osd int) int { return osd / *osdsPer }
	for pg := 0; pg < *pgs; pg++ {
		set := m.PGToOSDs(uint32(pg), *replicas)
		seen := map[int]bool{}
		for i, o := range set {
			counts[o]++
			if i == 0 {
				primaries[o]++
			}
			if seen[hostOf(o)] {
				sameHost++
			}
			seen[hostOf(o)] = true
		}
	}

	fmt.Fprintf(stdout, "map: %d hosts x %d OSDs, %d PGs, %d replicas\n",
		*hosts, *osdsPer, *pgs, *replicas)
	mean := float64(*pgs**replicas) / float64(m.NumOSDs())
	fmt.Fprintf(stdout, "%-6s %8s %10s %8s\n", "osd", "pgs", "primaries", "dev%")
	for o := 0; o < m.NumOSDs(); o++ {
		dev := 100 * (float64(counts[o]) - mean) / mean
		fmt.Fprintf(stdout, "osd.%-3d %8d %10d %+7.1f%%\n", o, counts[o], primaries[o], dev)
	}
	fmt.Fprintf(stdout, "replica sets violating host separation: %d\n", sameHost)

	if *remove >= 0 {
		after, err := buildMap(*hosts, *osdsPer, *remove)
		if err != nil {
			fmt.Fprintln(stderr, "crushtool:", err)
			return 1
		}
		moved := 0
		for pg := 0; pg < *pgs; pg++ {
			if m.Primary(uint32(pg), *replicas) != after.Primary(uint32(pg), *replicas) {
				moved++
			}
		}
		fmt.Fprintf(stdout, "after removing host%d: %d/%d primaries moved (%.1f%%, ideal %.1f%%)\n",
			*remove, moved, *pgs, 100*float64(moved)/float64(*pgs), 100/float64(*hosts))
	}
	return 0
}
