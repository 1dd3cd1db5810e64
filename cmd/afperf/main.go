// Command afperf is the repository's host-cost benchmark: how fast the
// simulator itself runs, end to end and layer by layer, on four fixed-work
// workloads.
//
// Usage (from the repository root; see README.md):
//
//	bash cmd/afperf/run.sh --workload randwrite-deep --seed 1 --seconds 15 --trace 0
//	bash cmd/afperf/run.sh --seed 1 --trace 1 --out afperf.json   # all four workloads
//
// Each repetition of a workload runs in its own child process with
// GOMAXPROCS=1: build the cluster and prefill it (set-up), run
// the closed-loop fio fleet for a fixed span of virtual time (the measured
// run), then drain, repair and scrub (the consistency check). The parent
// runs repetitions one at a time until their measured runs add up to
// -seconds, and at least three. End-to-end metrics are medians over them.
//
// With -trace 1 the parent also runs one repetition under a CPU profile,
// attributes its samples to the simulator's layers, and times each layer's
// public functions directly (the layer drivers). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"},
// holding the end-to-end metrics with -trace 0 and the per-layer metrics
// with -trace 1.
//
// The benchmark fails (exit status 1, correct=false) unless every
// repetition of a workload reproduces the same simulated fingerprint, no
// client op fails, failover detects exactly one down OSD by heartbeat and
// retries, and the final scrub is clean.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	minReps = 3
	maxReps = 9
	// childTimeout bounds one repetition; a hung child is killed.
	childTimeout = 150 * time.Second
)

// procs is the GOMAXPROCS of every child and of the parent. The simulator
// runs one event at a time, so a second P only adds cross-CPU wakeups and
// parallel GC whose cost depends on what else the host runs: on a shared
// 2-vCPU VM the spread of repeated runs at GOMAXPROCS=2 was about twice
// that at 1. A fixed value also keeps hosts with different core counts
// comparable.
const procs = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"sim_wall_x", "x"},
	{"host_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the per-layer metrics in report order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{"host." + l, "cpu-ns/op"})
	}
	defs = append(defs,
		metricDef{"host.total", "cpu-ns/op"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"sim.events_per_op", "events/op"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"netsim.msgs_per_op", "msgs/op"},
		metricDef{"netsim.kb_per_op", "KiB/op"},
		metricDef{"device.write_kb_per_op", "KiB/op"},
		metricDef{"osd.pglock_wait_us_per_op", "sim-us/op"}, // virtual time
		metricDef{"client.retries_per_kop", "1/kop"},
		metricDef{"runtime.allocs_per_op", "allocs/op"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.goroutines_leaked", "count"},
	)
	for _, d := range layerDrivers {
		defs = append(defs, metricDef{d.name, "ns"})
	}
	return defs
}

// modelNames are the simulated outputs recorded for reference: they
// measure the modelled cluster, not this program, so they are not metrics.
var modelNames = []string{"model.iops", "model.p50_ms", "model.p99_ms"}

// result is one workload's outcome; the JSON form is what -out writes.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	EndToEnd  map[string]metric  `json:"end_to_end"`
	PerLayer  map[string]metric  `json:"per_layer,omitempty"`
	Model     map[string]float64 `json:"model"`
	Reps      []repResult        `json:"reps"`
	Traced    *repResult         `json:"traced,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("afperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed for the cluster and the fio fleet")
	seconds := fs.Float64("seconds", 15, "measured wall seconds to collect per workload (at least 3 repetitions)")
	trace := fs.Int("trace", 0, "1: also run a profiled repetition and the layer drivers, and report per-layer metrics")
	out := fs.String("out", "", "also write every workload's full result as JSON to this file")
	rep := fs.String("rep", "", "internal: run one repetition of this workload in this process and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "afperf: -trace must be 0 or 1")
		return 2
	}
	if *rep != "" {
		return runChildMode(*rep, *seed, *trace == 1, stdout, stderr)
	}
	runtime.GOMAXPROCS(procs)

	todo := specs
	if *name != "all" {
		s, ok := specByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "afperf: unknown workload %q (want all or one of %s)\n", *name, strings.Join(specNames(), ", "))
			return 2
		}
		todo = []spec{s}
	}

	var results []result
	var drivers map[string]float64
	exit := 0
	for _, s := range todo {
		res, err := measure(s, *seed, *seconds, *trace == 1, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "afperf: %s: %v\n", s.name, err)
			return 1
		}
		if *trace == 1 {
			if drivers == nil {
				drivers = runDrivers()
			}
			res.PerLayer = perLayerMetrics(res.Reps, *res.Traced, drivers)
		}
		results = append(results, res)
		printResult(stdout, res)
		metrics := res.EndToEnd
		if *trace == 1 {
			metrics = res.PerLayer
		}
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted uint64            `json:"attempted"`
			Failed    uint64            `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, metrics})
		if err != nil {
			fmt.Fprintf(stderr, "afperf: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			fmt.Fprintf(stderr, "afperf: %s: check failed: %s\n", s.name, strings.Join(res.Problems, "; "))
			exit = 1
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "afperf: write %s: %v\n", *out, err)
			return 1
		}
	}
	return exit
}

func specNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// runChildMode is one repetition inside a child process.
func runChildMode(name string, seed uint64, profile bool, stdout, stderr io.Writer) int {
	s, ok := specByName(name)
	if !ok {
		fmt.Fprintf(stderr, "afperf: unknown workload %q\n", name)
		return 2
	}
	r, err := runRep(s, seed, profile)
	if err != nil {
		fmt.Fprintf(stderr, "afperf: %s: %v\n", name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintf(stderr, "afperf: %v\n", err)
		return 1
	}
	return 0
}

// runChild runs one repetition in a child process and adds its peak RSS.
func runChild(s spec, seed uint64, profile bool, stderr io.Writer) (repResult, error) {
	var r repResult
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if profile {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-rep", s.name, "-seed", strconv.FormatUint(seed, 10), "-trace", trace)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("repetition: %w", err)
	}
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return r, fmt.Errorf("repetition output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return r, errors.New("no rusage for the repetition")
	}
	r.MaxRSSKB = ru.Maxrss // kilobytes on Linux
	return r, nil
}

// measure runs a workload's repetitions (plus a profiled one when traced)
// and checks them.
func measure(s spec, seed uint64, seconds float64, traced bool, stderr io.Writer) (result, error) {
	res := result{Workload: s.name, Seed: seed}
	var measured time.Duration
	for len(res.Reps) < minReps || (measured.Seconds() < seconds && len(res.Reps) < maxReps) {
		r, err := runChild(s, seed, false, stderr)
		if err != nil {
			return res, err
		}
		res.Reps = append(res.Reps, r)
		measured += time.Duration(r.RunWallNS)
	}
	all := res.Reps
	if traced {
		r, err := runChild(s, seed, true, stderr)
		if err != nil {
			return res, err
		}
		res.Traced = &r
		all = append(slices.Clone(res.Reps), r)
	}
	for _, r := range all {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	res.Problems = check(s, all)
	res.Correct = len(res.Problems) == 0
	res.EndToEnd = endToEndMetrics(res.Reps)
	r0 := res.Reps[0]
	res.Model = map[string]float64{modelNames[0]: r0.IOPS, modelNames[1]: r0.P50ms, modelNames[2]: r0.P99ms}
	return res, nil
}

// check is the correctness gate over every repetition of one workload.
func check(s spec, reps []repResult) []string {
	var problems []string
	for i, r := range reps {
		if r.Print != reps[0].Print {
			problems = append(problems, fmt.Sprintf("rep %d fingerprint %+v differs from rep 0 %+v", i, r.Print, reps[0].Print))
		}
		if r.Ops == 0 {
			problems = append(problems, fmt.Sprintf("rep %d completed no ops", i))
		}
		if r.Failed != 0 {
			problems = append(problems, fmt.Sprintf("rep %d: %d of %d ops failed", i, r.Failed, r.Attempted))
		}
		if len(r.ScrubFindings) != 0 {
			problems = append(problems, fmt.Sprintf("rep %d: scrub found %d inconsistencies, first: %s", i, len(r.ScrubFindings), r.ScrubFindings[0]))
		}
		if s.failover && (r.DownsDetected != 1 || r.Retries == 0) {
			problems = append(problems, fmt.Sprintf("rep %d: failover detected %d downs with %d retries, want 1 down and some retries", i, r.DownsDetected, r.Retries))
		}
	}
	return problems
}

// medianOf returns the median of f over the repetitions.
func medianOf(reps []repResult, f func(repResult) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

func endToEndMetrics(reps []repResult) map[string]metric {
	v := map[string]float64{
		"sim_wall_x":     medianOf(reps, func(r repResult) float64 { return float64(r.VirtNS) / float64(r.RunWallNS) }),
		"host_us_per_op": medianOf(reps, func(r repResult) float64 { return float64(r.RunWallNS) / 1e3 / float64(r.Ops) }),
		"peak_rss_mb":    medianOf(reps, func(r repResult) float64 { return float64(r.MaxRSSKB) / 1024 }),
		"setup_s":        medianOf(reps, func(r repResult) float64 { return float64(r.SetupNS) / 1e9 }),
	}
	return withUnits(endToEnd, v)
}

// perLayerMetrics derives the per-layer metrics: host CPU by layer from the
// traced repetition, work counts and runtime figures from the untraced
// ones, and the layer drivers' costs.
func perLayerMetrics(reps []repResult, traced repResult, drivers map[string]float64) map[string]metric {
	v := map[string]float64{}
	ops := float64(traced.Ops)
	var total int64
	for _, l := range layers {
		v["host."+l] = float64(traced.HostNS[l]) / ops
		total += traced.HostNS[l]
	}
	v["host.total"] = float64(total) / ops
	untracedWall := medianOf(reps, func(r repResult) float64 { return float64(r.RunWallNS) })
	v["trace.overhead_pct"] = (float64(traced.RunWallNS)/untracedWall - 1) * 100
	perOp := func(f func(repResult) float64) float64 {
		return medianOf(reps, func(r repResult) float64 { return f(r) / float64(r.Ops) })
	}
	v["sim.events_per_op"] = perOp(func(r repResult) float64 { return float64(r.Events) })
	v["sim.ns_per_event"] = medianOf(reps, func(r repResult) float64 { return float64(r.RunWallNS) / float64(r.Events) })
	v["netsim.msgs_per_op"] = perOp(func(r repResult) float64 { return float64(r.NetMsgs) })
	v["netsim.kb_per_op"] = perOp(func(r repResult) float64 { return float64(r.NetBytes) / 1024 })
	v["device.write_kb_per_op"] = perOp(func(r repResult) float64 { return float64(r.DevWriteBytes) / 1024 })
	v["osd.pglock_wait_us_per_op"] = perOp(func(r repResult) float64 { return float64(r.PGLockWaitNS) / 1e3 })
	v["client.retries_per_kop"] = perOp(func(r repResult) float64 { return float64(r.Retries) * 1e3 })
	v["runtime.allocs_per_op"] = perOp(func(r repResult) float64 { return float64(r.Mallocs) })
	v["runtime.gc_cycles"] = medianOf(reps, func(r repResult) float64 { return float64(r.GCCycles) })
	v["runtime.goroutines_leaked"] = medianOf(reps, func(r repResult) float64 { return float64(r.Leaked) })
	for name, ns := range drivers {
		v[name] = ns
	}
	return withUnits(perLayer(), v)
}

func withUnits(defs []metricDef, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	return out
}

// runDrivers measures every layer driver at its full call count.
func runDrivers() map[string]float64 {
	out := make(map[string]float64, len(layerDrivers))
	for _, d := range layerDrivers {
		out[d.name] = measureDriver(d, d.calls, driverRounds)
	}
	return out
}

// printResult writes the human-readable summary of one workload.
func printResult(w io.Writer, res result) {
	status := "ok"
	if !res.Correct {
		status = "FAILED: " + strings.Join(res.Problems, "; ")
	}
	fmt.Fprintf(w, "== %s seed=%d reps=%d attempted=%d failed=%d check=%s\n",
		res.Workload, res.Seed, len(res.Reps), res.Attempted, res.Failed, status)
	show := func(defs []metricDef, m map[string]metric) {
		for _, d := range defs {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
		}
	}
	show(endToEnd, res.EndToEnd)
	if res.PerLayer != nil {
		show(perLayer(), res.PerLayer)
	}
	for _, k := range modelNames {
		fmt.Fprintf(w, "  %-28s %14.4f (simulated, reference only)\n", k, res.Model[k])
	}
}
