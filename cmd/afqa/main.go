// Command afqa runs the randomized stability suite (the reproduction's
// Teuthology, §6): randomized multi-client block workloads with invariant
// checking across optimization profiles, optionally with an OSD
// failure/recovery cycle ("thrashing").
//
// Usage:
//
//	afqa -profile afceph -clients 8 -ops 200 -seeds 5
//	afqa -profile community -thrash
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/osd"
	"repro/internal/qa"
	"repro/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is afqa with its arguments and output streams as parameters; it
// returns the exit status: 0 when every invariant held, 1 when one broke,
// 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("afqa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		profile = fs.String("profile", "afceph", "community | afceph")
		backend = fs.String("backend", "filestore", "object-store backend: filestore | directstore")
		clients = fs.Int("clients", 6, "concurrent clients")
		ops     = fs.Int("ops", 120, "randomized ops per client")
		seeds   = fs.Int("seeds", 3, "number of seeds to sweep")
		thrash  = fs.Bool("thrash", false, "include an OSD failure/recovery cycle")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	tuning, err := osd.ProfileByName(*profile)
	if err != nil {
		fmt.Fprintln(stderr, "afqa:", err)
		return 2
	}
	if err := store.CheckBackend(*backend); err != nil {
		fmt.Fprintln(stderr, "afqa:", err)
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"clients", *clients}, {"ops", *ops}, {"seeds", *seeds}} {
		if f.v < 1 {
			fmt.Fprintf(stderr, "afqa: -%s is %d, want at least 1\n", f.name, f.v)
			return 2
		}
	}

	failed := false
	for seed := uint64(1); seed <= uint64(*seeds); seed++ {
		cfg := qa.DefaultStress(tuning.Config())
		cfg.Cluster.OSD.Backend = *backend
		cfg.Clients = *clients
		cfg.OpsPerClient = *ops
		cfg.Cluster.Seed = seed
		var res *qa.Result
		if *thrash {
			res = qa.RunStressWithOutage(cfg, 1)
		} else {
			res = qa.RunStress(cfg)
		}
		status := "PASS"
		if res.Failed() {
			status = "FAIL"
			failed = true
		}
		fmt.Fprintf(stdout, "%s seed=%d writes=%d reads=%d verified=%d objects=%d recovered=%d simtime=%v\n",
			status, seed, res.Writes, res.Reads, res.ReadVerified,
			res.ObjectsWritten, res.Recovered, res.SimulatedTime)
		for _, v := range res.Violations {
			fmt.Fprintln(stdout, "  violation:", v)
		}
	}
	if failed {
		return 1
	}
	fmt.Fprintln(stdout, "all invariants held")
	return 0
}
