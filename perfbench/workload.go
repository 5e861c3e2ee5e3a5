package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"debar"
	"debar/internal/client"
	"debar/internal/obs"
)

// Workload fixes one workload's shape. Every workload runs two clients in
// a closed loop: a client starts its next job only when the previous one
// has returned.
type Workload struct {
	Name string
	Spec Spec // dataset shape; for ingest, the shape of one round
	Gens int  // restore: generations backed up during set-up
}

var workloads = map[string]Workload{
	"nightly": {Name: "nightly", Spec: Spec{Clients: 2, FilesPerClient: 64, ClientBytes: 64 << 20, SharedFrac: 0.25, EditFrac: 0.03}},
	"ingest":  {Name: "ingest", Spec: Spec{Clients: 2, FilesPerClient: 32, ClientBytes: 32 << 20}},
	"restore": {Name: "restore", Spec: Spec{Clients: 2, FilesPerClient: 64, ClientBytes: 64 << 20, SharedFrac: 0.25, EditFrac: 0.10}, Gens: 3},
}

// mStored is the store's count of container bytes appended; the server
// increments this same process-global counter.
var mStored = obs.GetCounter("store_container_append_bytes_total")

// tally accumulates what the timed calls of one phase did. Rates are
// kept per timed interval, so a run reports their median: one slow
// interval, such as a burst of CPU steal on a shared host, moves it less
// than it moves the aggregate.
type tally struct {
	logical, wire int64   // backup: BackupStats.LogicalBytes, TransferredBytes
	restored      int64   // bytes restored and verified
	cpuS          float64 // process user+sys CPU inside the timed calls
	stored        int64   // container bytes appended inside the timed calls

	backupMBps  []float64 // per concurrent backup of every client
	dedup2MBps  []float64 // per RunDedup2: logical bytes it covered per second
	cycleMBps   []float64 // per dedup-2 cycle: logical bytes / (backup + dedup-2 seconds)
	restoreMBps []float64 // per concurrent restore of every client

	undeduped  int64   // logical bytes backed up since the last dedup-2
	undedupedS float64 // backup seconds since the last dedup-2

	attempted int
	failed    int
	errs      []string
}

func (t *tally) add(o tally) {
	t.logical += o.logical
	t.wire += o.wire
	t.restored += o.restored
	t.cpuS += o.cpuS
	t.backupMBps = append(t.backupMBps, o.backupMBps...)
	t.dedup2MBps = append(t.dedup2MBps, o.dedup2MBps...)
	t.cycleMBps = append(t.cycleMBps, o.cycleMBps...)
	t.restoreMBps = append(t.restoreMBps, o.restoreMBps...)
	t.stored += o.stored
	t.addOps(o)
}

// addOps adds only o's operation counts.
func (t *tally) addOps(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

// op counts one operation, failed when err is non-nil.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.errs = append(t.errs, err.Error())
	}
}

// timed runs fn and returns its wall seconds, charging its CPU time and
// container appends to the tally.
func (t *tally) timed(fn func()) float64 {
	cpu0, stored0, t0 := cpuSeconds(), mStored.Value(), time.Now()
	fn()
	sec := time.Since(t0).Seconds()
	t.cpuS += cpuSeconds() - cpu0
	t.stored += mStored.Value() - stored0
	return sec
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(v syscall.Timeval) float64 { return float64(v.Sec) + float64(v.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// run is one deployment of a workload: its generated inputs, a durable
// in-process DEBAR system and the workload's clients.
type run struct {
	w       Workload
	seed    uint64
	dir     string
	tr      *Tracer
	sys     *debar.System
	clients []*debar.Client

	ds    *Dataset              // nightly, restore: the dataset; ingest: the latest round
	round int                   // ingest: the latest round
	hist  [][]map[string]Digest // digests per client of each generation (restore) or round (ingest)

	setup   tally // set-up's timed calls
	meas    tally // the measured phase and the output check
	stored0 int64 // mStored when the deployment started
}

// newRun generates the workload's inputs under dir, starts the deployment
// and pre-populates it. It returns the run and its set-up seconds.
func newRun(w Workload, seed uint64, dir string, tr *Tracer) (*run, float64, error) {
	start := time.Now()
	r := &run{w: w, seed: seed, dir: dir, tr: tr, stored0: mStored.Value()}
	id := tr.Start("setup", 0, -1)
	err := r.prepare(id)
	tr.End(id)
	if err != nil {
		r.close()
		return nil, 0, err
	}
	return r, time.Since(start).Seconds(), nil
}

func (r *run) prepare(span int) error {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	var err error
	if r.w.Name != "ingest" {
		if r.ds, err = NewDataset(filepath.Join(r.dir, "data"), r.seed, r.w.Spec); err != nil {
			return err
		}
	}
	// The shipped server defaults plus a data directory: a durable store
	// engine with group commit and fsync on, inline dedup on.
	if r.sys, err = debar.StartLocal(1, debar.ServerConfig{DataDir: filepath.Join(r.dir, "store")}); err != nil {
		return err
	}
	for c := 0; c < r.w.Spec.Clients; c++ {
		r.clients = append(r.clients, debar.NewClient(r.sys.ServerAddrs[0], fmt.Sprintf("c%d", c)))
	}
	t := &r.setup
	switch r.w.Name {
	case "nightly":
		r.tr.Do("generation", span, -1, func(g int) {
			r.backupAll(t, g, r.nightlyJob)
			r.dedup2(t, g)
		})
	case "ingest":
		// One round pre-populates the store so that the measured rounds
		// do not start from an empty index and container log.
		r.tr.Do("round", span, -1, func(g int) { err = r.ingestRound(t, g) })
	case "restore":
		// Generation 1 only pre-populates; the later generations' fresh
		// jobs of mostly known data take the inline probe path, and their
		// timed calls give the workload's write-path metrics.
		var first tally
		for g := 1; g <= r.w.Gens && err == nil; g++ {
			r.tr.Do("generation", span, -1, func(gs int) {
				gt := t
				if g == 1 {
					gt = &first
				} else if err = r.ds.Advance(); err != nil {
					return
				}
				r.backupAll(gt, gs, r.restoreJob(g))
				r.dedup2(gt, gs)
				r.hist = append(r.hist, r.ds.Digests())
			})
		}
		t.addOps(first)
	}
	if err == nil && t.failed > 0 {
		err = fmt.Errorf("set-up: %d of %d operations failed: %v", t.failed, t.attempted, t.errs)
	}
	return err
}

// measure runs the workload's measured phase for at least seconds, then
// checks every output the phase produced.
func (r *run) measure(seconds float64) error {
	t := &r.meas
	root := r.tr.Start("measure", 0, -1)
	defer r.tr.End(root)
	start := time.Now()
	var err error
	for n := 1; err == nil && (n == 1 || time.Since(start).Seconds() < seconds); n++ {
		switch r.w.Name {
		case "nightly":
			r.tr.Do("generation", root, -1, func(g int) {
				if err = r.ds.Advance(); err != nil {
					return
				}
				r.backupAll(t, g, r.nightlyJob)
				r.dedup2(t, g)
			})
		case "ingest":
			r.tr.Do("round", root, -1, func(g int) { err = r.ingestRound(t, g) })
		case "restore":
			// One pass restores every generation, oldest to newest.
			r.tr.Do("pass", root, -1, func(p int) {
				for g := 1; g <= r.w.Gens; g++ {
					r.tr.Do("generation", p, -1, func(gs int) { r.restoreAll(t, gs, r.restoreJob(g), r.hist[g-1]) })
				}
			})
		}
	}
	if err != nil {
		return err
	}
	r.check(t, root)
	return nil
}

// checkRestores is the number of restores the output check of nightly
// and ingest makes, so that their restore rate is a median of several.
const checkRestores = 5

// check verifies the newest backup of every client against its local
// files. Where the measured phase restored nothing, it also restores
// backups and compares every file with the generator's digests: nightly
// restores its newest generation checkRestores times (its containers
// outnumber the LPC, so each pass loads them again), ingest its last
// checkRestores rounds.
func (r *run) check(t *tally, parent int) {
	span := r.tr.Start("check", parent, -1)
	defer r.tr.End(span)
	switch r.w.Name {
	case "nightly":
		r.verifyAll(t, span, r.nightlyJob)
		for i := 0; i < checkRestores; i++ {
			r.restoreAll(t, span, r.nightlyJob, r.ds.Digests())
		}
	case "ingest":
		r.verifyAll(t, span, r.ingestJob(r.round))
		for k := max(1, r.round-checkRestores+1); k <= r.round; k++ {
			r.restoreAll(t, span, r.ingestJob(k), r.hist[k-1])
		}
	case "restore":
		r.verifyAll(t, span, r.restoreJob(r.w.Gens))
	}
}

func (r *run) nightlyJob(c int) string { return fmt.Sprintf("c%d", c) }

func (r *run) ingestJob(round int) func(int) string {
	return func(c int) string { return fmt.Sprintf("c%d-r%d", c, round) }
}

func (r *run) restoreJob(g int) func(int) string {
	return func(c int) string { return fmt.Sprintf("c%d-g%d", c, g) }
}

// ingestRound generates a round of unique data, backs it up under fresh
// jobs and runs dedup-2. The previous round's input files are removed;
// their digests are not needed again.
func (r *run) ingestRound(t *tally, span int) error {
	prev := r.ds
	r.round++
	ds, err := NewDataset(filepath.Join(r.dir, fmt.Sprintf("data-r%d", r.round)), subSeed(r.seed, uint64(r.round)), r.w.Spec)
	if err != nil {
		return err
	}
	r.ds = ds
	r.hist = append(r.hist, ds.Digests())
	if prev != nil {
		if err := os.RemoveAll(prev.root); err != nil {
			return err
		}
	}
	r.backupAll(t, span, r.ingestJob(r.round))
	r.dedup2(t, span)
	return nil
}

// concurrently runs fn once per client, each in its own goroutine and
// span, and waits for all of them.
func (r *run) concurrently(name string, parent int, fn func(c int)) {
	var wg sync.WaitGroup
	for c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.tr.Do(name, parent, c, func(int) { fn(c) })
		}()
	}
	wg.Wait()
}

// backupAll backs up every client's dataset concurrently, one job each.
func (r *run) backupAll(t *tally, parent int, job func(c int) string) {
	stats := make([]client.BackupStats, len(r.clients))
	errs := make([]error, len(r.clients))
	sec := t.timed(func() {
		r.concurrently("backup", parent, func(c int) {
			stats[c], errs[c] = r.clients[c].Backup(job(c), r.ds.Dir(c))
		})
	})
	var logical int64
	for c := range r.clients {
		t.op(errs[c])
		logical += stats[c].LogicalBytes
		t.wire += stats[c].TransferredBytes
	}
	t.logical += logical
	t.undeduped += logical
	t.undedupedS += sec
	t.backupMBps = append(t.backupMBps, mbps(logical, sec))
}

func (r *run) dedup2(t *tally, parent int) {
	var err error
	sec := t.timed(func() {
		r.tr.Do("dedup2", parent, -1, func(int) { err = r.sys.RunDedup2() })
	})
	t.op(err)
	if err == nil {
		t.dedup2MBps = append(t.dedup2MBps, mbps(t.undeduped, sec))
		t.cycleMBps = append(t.cycleMBps, mbps(t.undeduped, t.undedupedS+sec))
		t.undeduped, t.undedupedS = 0, 0
	}
}

// restoreAll restores every client's job concurrently, then compares each
// restored file with want. Comparison runs outside the timed interval.
func (r *run) restoreAll(t *tally, parent int, job func(c int) string, want []map[string]Digest) {
	dirs := make([]string, len(r.clients))
	errs := make([]error, len(r.clients))
	for c := range dirs {
		dirs[c] = filepath.Join(r.dir, "restore", fmt.Sprintf("c%d", c))
	}
	sec := t.timed(func() {
		r.concurrently("restore", parent, func(c int) {
			_, errs[c] = r.clients[c].Restore(job(c), dirs[c])
		})
	})
	results := make([]compared, len(r.clients))
	var wg sync.WaitGroup
	for c := range r.clients {
		t.op(errs[c])
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = compareDir(dirs[c], want[c])
		}()
	}
	wg.Wait()
	var restored int64
	for c, res := range results {
		restored += res.bytes
		for _, e := range res.errs {
			t.attempted++
			t.failed++
			t.errs = append(t.errs, fmt.Sprintf("restore %s: %s", job(c), e))
		}
		if err := os.RemoveAll(dirs[c]); err != nil {
			t.op(err)
		}
	}
	t.restored += restored
	t.restoreMBps = append(t.restoreMBps, mbps(restored, sec))
}

// verifyAll runs Client.Verify for every client concurrently.
func (r *run) verifyAll(t *tally, parent int, job func(c int) string) {
	errs := make([]error, len(r.clients))
	r.concurrently("verify", parent, func(c int) {
		res, err := r.clients[c].Verify(job(c), r.ds.Dir(c))
		if err == nil && !res.OK() {
			err = fmt.Errorf("verify %s: %d of %d files match, modified %v, missing %v",
				job(c), res.Matched, res.Checked, res.Modified, res.Missing)
		}
		errs[c] = err
	})
	for _, err := range errs {
		t.op(err)
	}
}

type compared struct {
	bytes int64    // bytes of files whose digest matched
	errs  []string // one per missing, extra or mismatching file
}

// compareDir checks that dir holds exactly the files of want, each with
// the wanted SHA-256 digest.
func compareDir(dir string, want map[string]Digest) compared {
	var res compared
	seen := make(map[string]bool, len(want))
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		seen[rel] = true
		wd, ok := want[rel]
		if !ok {
			res.errs = append(res.errs, "unexpected file "+rel)
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		h := sha256.New()
		n, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return err
		}
		if Digest(h.Sum(nil)) != wd {
			res.errs = append(res.errs, "content differs: "+rel)
			return nil
		}
		res.bytes += n
		return nil
	})
	if err != nil {
		res.errs = append(res.errs, err.Error())
	}
	for name := range want {
		if !seen[name] {
			res.errs = append(res.errs, "missing file "+name)
		}
	}
	return res
}

func (r *run) close() {
	if r.sys != nil {
		r.sys.Close()
		r.sys = nil
	}
}
