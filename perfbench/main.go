// Command perfbench is the repository benchmark. It drives an in-process
// durable DEBAR deployment (debar.StartLocal with the shipped server
// defaults plus a data directory) through the public client API with two
// concurrent closed-loop clients, checks every output, and prints the
// end-to-end metrics of one workload. With -trace 1 it instead runs the
// workload untraced and traced, replays the workload's inputs through each
// layer's public functions, writes the spans, and prints the per-layer
// metrics, a layer-budget table and the tracing overhead.
//
// Run it through run.py, which builds it:
//
//	python3 perfbench/run.py --workload nightly --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"debar/internal/container"
	"debar/internal/obs"
)

// setups is the number of set-ups of an untraced run; setup_s is their
// median.
const setups = 3

// deadline bounds one run, set-ups, measured phase and replay included.
const deadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: nightly, ingest or restore")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for generated inputs, stores and spans")
	flag.Parse()
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload nightly|ingest|restore and -seconds > 0\n")
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("run-%s-%d", w.Name, os.Getpid()))
	// A signal, or a run past the deadline, removes the run's directory
	// and exits without a result.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case <-stop:
		case <-time.After(deadline):
			fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		}
		os.RemoveAll(dir)
		os.Exit(3)
	}()
	var err error
	if *trace == 0 {
		err = untraced(w, *seed, dir, *seconds)
	} else {
		err = traced(w, *seed, dir, *work, *seconds)
	}
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is one workload execution: its set-ups, the measured phase and
// output check, and the obs and runtime deltas over the latter.
type result struct {
	w          Workload
	setupS     []float64
	write      tally // the backups and dedup-2 passes the write-path metrics use
	meas       tally // the measured phase and the output check
	all        tally // every operation, set-ups included
	storeBytes int64 // container bytes the deployment holds at the end
	obs        obsDelta
	mem0, mem1 runtime.MemStats
	r          *run // the last deployment, still open
}

// execute sets the workload up setups times, keeping the last deployment,
// then measures it for seconds and checks its outputs.
func execute(w Workload, seed uint64, dir string, seconds float64, setups int, tr *Tracer) (*result, error) {
	res := &result{w: w}
	var r *run
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
			if err := os.RemoveAll(r.dir); err != nil {
				return nil, err
			}
		}
		var sec float64
		var err error
		if r, sec, err = newRun(w, seed, filepath.Join(dir, fmt.Sprintf("setup%d", i)), tr); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, sec)
		res.all.add(r.setup)
		if w.Name == "restore" {
			res.write.add(r.setup)
		}
	}
	before := obs.Default.Snapshot()
	res.mem0 = readMem()
	err := r.measure(seconds)
	res.mem1 = readMem()
	res.obs = obsDelta{before, obs.Default.Snapshot()}
	if err != nil {
		r.close()
		return nil, err
	}
	res.meas = r.meas
	res.storeBytes = mStored.Value() - r.stored0
	res.all.add(r.meas)
	if w.Name != "restore" {
		res.write = r.meas
	}
	res.r = r
	return res, nil
}

func untraced(w Workload, seed uint64, dir string, seconds float64) error {
	res, err := execute(w, seed, dir, seconds, setups, nil)
	if err != nil {
		return err
	}
	res.r.close()
	m := endToEndMetrics(res)
	fmt.Printf("workload %s seed %d: %s\n", w.Name, seed, describe(res))
	printSamples(res)
	printMetrics(endToEnd, m)
	return emit(res.all, endToEnd, m)
}

func traced(w Workload, seed uint64, dir, work string, seconds float64) error {
	un, err := execute(w, seed, filepath.Join(dir, "untraced"), seconds, 1, nil)
	if err != nil {
		return err
	}
	un.r.close()
	tr := NewTracer(w.Name)
	res, err := execute(w, seed, filepath.Join(dir, "traced"), seconds, 1, tr)
	if err != nil {
		return err
	}
	rp, err := replay(res.r, tr)
	res.r.close()
	if err != nil {
		return err
	}
	spans := filepath.Join(work, "spans", fmt.Sprintf("%s-seed%d.json", w.Name, seed))
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return err
	}
	if err := tr.Write(spans); err != nil {
		return err
	}

	a, b := endToEndMetrics(un), endToEndMetrics(res)
	fmt.Printf("workload %s seed %d, untraced: %s\n", w.Name, seed, describe(un))
	fmt.Printf("workload %s seed %d, traced:   %s\n", w.Name, seed, describe(res))
	fmt.Println("tracing overhead (end-to-end metrics, untraced vs traced run):")
	fmt.Printf("  %-14s %12s %12s %9s  %s\n", "metric", "untraced", "traced", "diff", "unit")
	for _, d := range endToEnd {
		fmt.Printf("  %-14s %12.4f %12.4f %+8.1f%%  %s\n", d.name, a[d.name], b[d.name], 100*ratio(b[d.name]-a[d.name], a[d.name]), d.unit)
	}
	pl := perLayerMetrics(res, rp)
	fmt.Printf("layer budget, %s (each layer's replayed throughput over the share of logical bytes it handles):\n", w.Name)
	printBudget(os.Stdout, layerBudget(res, rp, pl))
	fmt.Println("obs-derived ratios and their bases:")
	printRatios(os.Stdout, res)
	fmt.Println("span self time:")
	printSelfTimes(os.Stdout, tr.SelfTimes())
	fmt.Printf("spans written to %s\n", spans)
	fmt.Println("per-layer metrics:")
	printMetrics(perLayer, pl)
	all := un.all
	all.add(res.all)
	return emit(all, perLayer, pl)
}

// lpcBytes is the server's restore cache: 16 containers of 8 MiB.
const lpcBytes = 16 * container.DefaultSize

// describe summarises a run's operation counts.
func describe(res *result) string {
	m := res.meas
	return fmt.Sprintf("%d set-up(s), measured %.1f MB backed up and %.1f MB restored, store %.1f MB (%.2fx the LPC); fail_frac %g (%d of %d ops)",
		len(res.setupS), float64(m.logical)/1e6, float64(m.restored)/1e6,
		float64(res.storeBytes)/1e6, float64(res.storeBytes)/lpcBytes,
		ratio(float64(res.all.failed), float64(res.all.attempted)), res.all.failed, res.all.attempted)
}

// printSamples lists the per-interval rates the throughput medians come from.
func printSamples(res *result) {
	for _, s := range []struct {
		name string
		v    []float64
	}{
		{"backup_mbps", res.write.backupMBps},
		{"dedup2_mbps", res.write.dedup2MBps},
		{"cycle_mbps", res.write.cycleMBps},
		{"restore_mbps", res.meas.restoreMBps},
	} {
		fmt.Printf("  %-14s samples %.1f\n", s.name, s.v)
	}
}

func printMetrics(defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		fmt.Printf("  %-30s %14.4f %s\n", d.name, m[d.name], d.unit)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result line and reports any failed operation or
// non-finite metric as an error, so the command exits non-zero.
func emit(t tally, defs []metricDef, m map[string]float64) error {
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]value)}
	var bad []string
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, d.name)
			v = 0
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	out.Correct = t.failed == 0 && len(bad) == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	switch {
	case t.failed > 0:
		sort.Strings(t.errs)
		return fmt.Errorf("%d of %d operations failed: %s", t.failed, t.attempted, strings.Join(t.errs, "; "))
	case len(bad) > 0:
		return fmt.Errorf("metrics not measured: %s", strings.Join(bad, ", "))
	}
	return nil
}
