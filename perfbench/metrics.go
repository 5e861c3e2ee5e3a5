package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"

	"debar/internal/container"
	"debar/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of untraced runs, in report order.
var endToEnd = []metricDef{
	{"backup_mbps", "MB/s"},
	{"dedup2_mbps", "MB/s"},
	{"cycle_mbps", "MB/s"},
	{"restore_mbps", "MB/s"},
	{"cpu_s_per_gb", "s/GB"},
	{"stored_ratio", "ratio"},
	{"wire_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics of traced runs, in report order. "obs"
// metrics are deltas of obs.Default over the measured phase and the
// output check; the others come from the replay.
var perLayer = []metricDef{
	{"client.window_occupancy_mean", "count"},
	{"client.retries", "count"},
	{"chunker.mbps", "MB/s"},
	{"chunker.mean_chunk_b", "B"},
	{"fp.mbps", "MB/s"},
	{"proto.chunkbatch_mbps", "MB/s"},
	{"proto.restorebatch_mbps", "MB/s"},
	{"server.prefilter_hit_ratio", "ratio"},
	{"server.inline_hit_ratio", "ratio"},
	{"prefilter.test_ns", "ns"},
	{"chunklog.wal_append_mbps", "MB/s"},
	{"store.wal_fsyncs", "count"},
	{"store.wal_fsync_p50_ms", "ms"},
	{"store.wal_fsync_p99_ms", "ms"},
	{"store.commit_wal_writers_mean", "count"},
	{"store.commit_wait_us", "us"},
	{"tpds.sil_s", "s"},
	{"tpds.siu_s", "s"},
	{"tpds.region_scan_s", "s"},
	{"tpds.region_pack_s", "s"},
	{"tpds.region_commit_s", "s"},
	{"diskindex.scan_mbps", "MB/s"},
	{"diskindex.lookups", "count"},
	{"diskindex.lookup_us", "us"},
	{"container.append_mbps", "MB/s"},
	{"container.load_mbps", "MB/s"},
	{"lpc.hit_ratio", "ratio"},
	{"lpc.lookup_ns", "ns"},
	{"restore.window_stalls", "count"},
	{"restore.container_loads", "count"},
	{"director.control_retries", "count"},
	{"runtime.alloc_b_per_b", "B/B"},
	{"runtime.gc_cycles", "count"},
}

// median is NaN for no values, which the result line reports as a failure.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// endToEndMetrics computes the untraced metrics of one run. Throughputs
// are medians over the run's timed intervals; CPU and space are totals.
// The restore workload measures only restores; its write-path metrics come
// from the backups and dedup-2 passes of its set-ups.
func endToEndMetrics(res *result) map[string]float64 {
	w, m := res.write, res.meas
	return map[string]float64{
		"backup_mbps":  median(w.backupMBps),
		"dedup2_mbps":  median(w.dedup2MBps),
		"cycle_mbps":   median(w.cycleMBps),
		"restore_mbps": median(m.restoreMBps),
		"cpu_s_per_gb": m.cpuS / (float64(m.logical+m.restored) / 1e9),
		"stored_ratio": float64(w.stored) / float64(w.logical),
		"wire_ratio":   float64(w.wire) / float64(w.logical),
		"peak_rss_mb":  peakRSSMB(),
		"setup_s":      median(res.setupS),
	}
}

// obsDelta is the change of obs.Default over an interval.
type obsDelta struct{ before, after obs.Snapshot }

func (d obsDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// hist returns the interval's observation count, sum and cumulative
// bucket counts of a histogram.
func (d obsDelta) hist(name string) (int64, float64, []obs.BucketCount) {
	a, b := d.after.Histograms[name], d.before.Histograms[name]
	buckets := make([]obs.BucketCount, len(a.Buckets))
	for i, bc := range a.Buckets {
		buckets[i] = bc
		if i < len(b.Buckets) {
			buckets[i].Count -= b.Buckets[i].Count
		}
	}
	return a.Count - b.Count, a.Sum - b.Sum, buckets
}

func (d obsDelta) mean(name string) float64 {
	n, sum, _ := d.hist(name)
	return ratio(sum, float64(n))
}

func (d obsDelta) sum(name string) float64 {
	_, sum, _ := d.hist(name)
	return sum
}

// quantile estimates the q-quantile of a histogram's interval
// observations by linear interpolation inside the bucket that holds it.
func (d obsDelta) quantile(name string, q float64) float64 {
	n, _, buckets := d.hist(name)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	lo, prev := 0.0, int64(0)
	for _, b := range buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.LE, 1) {
				return lo
			}
			return lo + (b.LE-lo)*(rank-float64(prev))/float64(b.Count-prev)
		}
		lo, prev = b.LE, b.Count
	}
	return lo
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// inlineCounts returns the server's dedup-1 decisions over the interval:
// fingerprints offered, prefilter hits (including logged-map hits),
// inline index hits and inline probes.
func inlineCounts(d obsDelta) (offered, hits, inline, probes float64) {
	hits = d.counter("server_prefilter_hits_total")
	misses := d.counter("server_prefilter_misses_total")
	inline = d.counter("server_inline_dup_hits_total")
	return hits + misses + inline, hits, inline, inline + misses
}

// perLayerMetrics combines the traced run's obs deltas with the replay.
func perLayerMetrics(res *result, rp *replayed) map[string]float64 {
	d := res.obs
	offered, hits, inline, probes := inlineCounts(d)
	chunks := d.counter("server_restore_chunks_total")
	loads := d.counter("server_restore_container_loads_total")
	m := map[string]float64{
		"client.window_occupancy_mean":  d.mean("client_window_occupancy"),
		"client.retries":                d.counter("client_backup_retries_total") + d.counter("client_restore_retries_total"),
		"server.prefilter_hit_ratio":    ratio(hits, offered),
		"server.inline_hit_ratio":       ratio(inline, probes),
		"store.wal_fsyncs":              d.counter("store_wal_fsyncs_total"),
		"store.wal_fsync_p50_ms":        d.quantile("store_wal_fsync_seconds", 0.50) * 1e3,
		"store.wal_fsync_p99_ms":        d.quantile("store_wal_fsync_seconds", 0.99) * 1e3,
		"store.commit_wal_writers_mean": d.mean("store_commit_wal_window_writers"),
		"tpds.sil_s":                    d.sum("server_dedup2_sil_seconds"),
		"tpds.siu_s":                    d.sum("server_dedup2_siu_seconds"),
		"tpds.region_scan_s":            d.sum("dedup2_region_scan_seconds"),
		"tpds.region_pack_s":            d.sum("dedup2_region_pack_seconds"),
		"tpds.region_commit_s":          d.sum("dedup2_region_commit_seconds"),
		"diskindex.lookups":             d.counter("store_index_lookups_total"),
		"lpc.hit_ratio":                 1 - ratio(loads, chunks),
		"restore.window_stalls":         d.counter("server_restore_window_stalls_total"),
		"restore.container_loads":       loads,
		"director.control_retries":      d.counter("director_control_retries_total"),
		"runtime.alloc_b_per_b":         ratio(float64(res.mem1.TotalAlloc-res.mem0.TotalAlloc), float64(res.meas.logical+res.meas.restored)),
		"runtime.gc_cycles":             float64(res.mem1.NumGC - res.mem0.NumGC),
	}
	if chunks == 0 {
		m["lpc.hit_ratio"] = 0
	}
	for k, v := range rp.metrics {
		m[k] = v
	}
	return m
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// budgetRow is one layer on a workload's path: its replayed throughput,
// the share of the workload's logical bytes that passes through it, and
// the logical rate that throughput allows (replayed MB/s / share).
type budgetRow struct {
	layer string
	mbps  float64 // replayed throughput of the layer's own work
	share float64 // layer bytes per logical byte; 0 when idle
	base  string  // what the share is measured against
}

// layerBudget lists the replayed layers on the workload's path.
func layerBudget(res *result, rp *replayed, pl map[string]float64) []budgetRow {
	d := res.obs
	w := res.write
	offered, _, _, probes := inlineCounts(d)
	chunks := d.counter("server_restore_chunks_total")
	perOp := func(ns float64) float64 { return ratio(rp.chunkB, ns) * 1e3 } // bytes per ns -> MB/s
	if res.w.Name == "restore" {
		loads := d.counter("server_restore_container_loads_total")
		return []budgetRow{
			{"proto.restorebatch", pl["proto.restorebatch_mbps"], 1, "restored bytes"},
			{"fp", pl["fp.mbps"], 1, "restored bytes (the client re-fingerprints every chunk)"},
			{"lpc.lookup", perOp(pl["lpc.lookup_ns"]), 1, "restored bytes (every chunk)"},
			{"diskindex.lookup", perOp(pl["diskindex.lookup_us"] * 1e3), ratio(d.counter("server_restore_index_lookups_total"), chunks), fmt.Sprintf("index lookups / %.0f chunks", chunks)},
			{"container.load", pl["container.load_mbps"], ratio(loads*container.DefaultSize, float64(res.meas.restored)), fmt.Sprintf("%.0f loads x 8 MB / restored bytes", loads)},
		}
	}
	logical := float64(w.logical)
	passes := d.counter("server_dedup2_passes_total")
	wire := ratio(float64(w.wire), logical)
	return []budgetRow{
		{"chunker", pl["chunker.mbps"], 1, "logical bytes"},
		{"fp", pl["fp.mbps"], 1, "logical bytes"},
		{"prefilter.test", perOp(pl["prefilter.test_ns"]), 1, "logical bytes (every fingerprint)"},
		{"diskindex.lookup", perOp(pl["diskindex.lookup_us"] * 1e3), ratio(probes, offered), fmt.Sprintf("%.0f inline probes / %.0f fingerprints", probes, offered)},
		{"proto.chunkbatch", pl["proto.chunkbatch_mbps"], wire, "wire bytes / logical"},
		{"chunklog.wal", pl["chunklog.wal_append_mbps"], wire, "wire bytes / logical"},
		{"store.commit", ratio(rp.batchB, pl["store.commit_wait_us"]), wire, "wire bytes / logical"},
		{"diskindex.scan", pl["diskindex.scan_mbps"], ratio(float64(serverIndex.SizeBytes())*passes, logical), fmt.Sprintf("%.0f scans x 32 MiB index / logical", passes)},
		{"container.append", pl["container.append_mbps"], ratio(float64(w.stored), logical), "container bytes / logical"},
	}
}

func printBudget(out io.Writer, rows []budgetRow) {
	slowest := -1
	for i, r := range rows {
		if r.share > 0 && (slowest < 0 || r.mbps/r.share < rows[slowest].mbps/rows[slowest].share) {
			slowest = i
		}
	}
	fmt.Fprintf(out, "  %-20s %12s %8s %14s  %s\n", "layer", "replay_MB/s", "share", "allows_MB/s", "share base")
	for i, r := range rows {
		allows := "idle"
		if r.share > 0 {
			allows = fmt.Sprintf("%.1f", r.mbps/r.share)
		}
		mark := ""
		if i == slowest {
			mark = "  <- slowest"
		}
		fmt.Fprintf(out, "  %-20s %12.1f %8.4f %14s  %s%s\n", r.layer, r.mbps, r.share, allows, r.base, mark)
	}
}

// printRatios lists the obs-derived ratios of the traced run with their bases.
func printRatios(out io.Writer, res *result) {
	d := res.obs
	offered, hits, inline, probes := inlineCounts(d)
	chunks := d.counter("server_restore_chunks_total")
	loads := d.counter("server_restore_container_loads_total")
	fmt.Fprintf(out, "  server.prefilter_hit_ratio %.4f = %.0f hits / %.0f fingerprints offered\n", ratio(hits, offered), hits, offered)
	fmt.Fprintf(out, "  server.inline_hit_ratio    %.4f = %.0f inline hits / %.0f inline probes\n", ratio(inline, probes), inline, probes)
	fmt.Fprintf(out, "  lpc.hit_ratio              %.4f = 1 - %.0f container loads / %.0f chunks served\n", 1-ratio(loads, chunks), loads, chunks)
}
