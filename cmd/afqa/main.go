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
	"flag"
	"fmt"
	"os"

	"repro/internal/osd"
	"repro/internal/qa"
	"repro/internal/store"
)

func main() {
	var (
		profile = flag.String("profile", "afceph", "community | afceph")
		backend = flag.String("backend", "filestore", "object-store backend: filestore | directstore")
		clients = flag.Int("clients", 6, "concurrent clients")
		ops     = flag.Int("ops", 120, "randomized ops per client")
		seeds   = flag.Int("seeds", 3, "number of seeds to sweep")
		thrash  = flag.Bool("thrash", false, "include an OSD failure/recovery cycle")
	)
	flag.Parse()

	tuning, err := osd.ProfileByName(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afqa:", err)
		os.Exit(2)
	}
	if err := store.CheckBackend(*backend); err != nil {
		fmt.Fprintln(os.Stderr, "afqa:", err)
		os.Exit(2)
	}

	failed := false
	for seed := uint64(1); seed <= uint64(*seeds); seed++ {
		cfg := qa.DefaultStress(tuning.Config())
		cfg.Backend = *backend
		cfg.Clients = *clients
		cfg.OpsPerClient = *ops
		cfg.Seed = seed
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
		fmt.Printf("%s seed=%d writes=%d reads=%d verified=%d objects=%d recovered=%d simtime=%v\n",
			status, seed, res.Writes, res.Reads, res.ReadVerified,
			res.ObjectsWritten, res.Recovered, res.SimulatedTime)
		for _, v := range res.Violations {
			fmt.Println("  violation:", v)
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("all invariants held")
}
