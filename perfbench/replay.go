package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"debar/internal/chunker"
	"debar/internal/chunklog"
	"debar/internal/container"
	"debar/internal/diskindex"
	"debar/internal/fp"
	"debar/internal/lpc"
	"debar/internal/prefilter"
	"debar/internal/proto"
	"debar/internal/store"
)

// replayCap bounds the input bytes replayed per client.
const replayCap = 32 << 20

// serverIndex is the disk-index geometry of a server with default config.
var serverIndex = diskindex.Config{BucketBits: 16, BucketBlocks: 1}

// batchChunks is the chunks per replayed batch: the client's default
// FPBatch size and the server's default restore batch.
const batchChunks = 256

// replayed is the result of replaying a workload's inputs through each
// layer's public functions in one goroutine.
type replayed struct {
	metrics map[string]float64
	chunkB  float64 // mean chunk size in bytes
	batchB  float64 // mean replayed batch size in bytes
}

// replay feeds the run's current input files through every layer and
// times each call batch as a span under one "replay" root.
func replay(r *run, tr *Tracer) (*replayed, error) {
	dir := filepath.Join(r.dir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	root := tr.Start("replay", 0, -1)
	defer tr.End(root)
	rp := &replayed{metrics: make(map[string]float64)}
	m := rp.metrics

	// Inputs: each client's current files in path order, up to replayCap.
	var files [][]byte
	var ownFiles int // files[:ownFiles] belong to client 0
	for c := range r.clients {
		data, err := readFiles(r.ds.Dir(c), replayCap)
		if err != nil {
			return nil, err
		}
		files = append(files, data...)
		if c == 0 {
			ownFiles = len(files)
		}
	}

	// chunker: content-defined chunking of every file.
	var chunks [][]byte
	var split int // chunks[:split] come from client 0
	var total int64
	sec, err := layer(tr, root, "chunker", len(files), func(i int) error {
		ch, err := chunker.New(bytes.NewReader(files[i]), chunker.Config{})
		if err != nil {
			return err
		}
		for {
			c, err := ch.AppendNext(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			chunks = append(chunks, c.Data)
			total += int64(len(c.Data))
		}
		if i+1 == ownFiles {
			split = len(chunks)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["chunker.mbps"] = mbps(total, sec)
	rp.chunkB = float64(total) / float64(len(chunks))
	m["chunker.mean_chunk_b"] = rp.chunkB
	batches := (len(chunks) + batchChunks - 1) / batchChunks
	rp.batchB = float64(total) / float64(batches)
	batch := func(i int) (int, int) { return i * batchChunks, min((i+1)*batchChunks, len(chunks)) }

	// fp: SHA-1 of every chunk.
	fps := make([]fp.FP, len(chunks))
	sec, _ = layer(tr, root, "fp", batches, func(i int) error {
		lo, hi := batch(i)
		for j := lo; j < hi; j++ {
			fps[j] = fp.New(chunks[j])
		}
		return nil
	})
	m["fp.mbps"] = mbps(total, sec)

	// proto: ChunkBatch and RestoreChunkBatch frames over net.Pipe.
	sec, err = pipeReplay(tr, root, "proto.chunkbatch", batches, func(i int) any {
		lo, hi := batch(i)
		return proto.ChunkBatch{SessionID: 1, FPs: fps[lo:hi], Data: chunks[lo:hi]}
	})
	if err != nil {
		return nil, err
	}
	m["proto.chunkbatch_mbps"] = mbps(total, sec)
	sec, err = pipeReplay(tr, root, "proto.restorebatch", batches, func(i int) any {
		lo, hi := batch(i)
		return proto.RestoreChunkBatch{Seq: uint64(i), Data: chunks[lo:hi]}
	})
	if err != nil {
		return nil, err
	}
	m["proto.restorebatch_mbps"] = mbps(total, sec)

	// prefilter: one session filter (the server's geometry) tests every
	// fingerprint in backup order, so shared and repeated chunks hit.
	pf := prefilter.New(14, 0)
	sec, _ = layer(tr, root, "prefilter", batches, func(i int) error {
		lo, hi := batch(i)
		for _, f := range fps[lo:hi] {
			pf.Test(f)
		}
		return nil
	})
	m["prefilter.test_ns"] = sec * 1e9 / float64(len(fps))

	// chunklog: WAL appends with an fsync per batch.
	wal, _, err := chunklog.OpenWAL(filepath.Join(dir, "wal"), 0)
	if err != nil {
		return nil, err
	}
	sec, err = layer(tr, root, "chunklog.wal", batches, func(i int) error {
		lo, hi := batch(i)
		for j := lo; j < hi; j++ {
			if err := wal.AppendOwned(fps[j], uint32(len(chunks[j])), chunks[j]); err != nil {
				return err
			}
		}
		return wal.Sync()
	})
	if err = errors.Join(err, wal.Close()); err != nil {
		return nil, err
	}
	m["chunklog.wal_append_mbps"] = mbps(total, sec)

	// store: the group committer's wait, one writer, a ticket per batch.
	wal, _, err = chunklog.OpenWAL(filepath.Join(dir, "wal-gc"), 0)
	if err != nil {
		return nil, err
	}
	wal.SetExternalSync()
	gc := store.NewCommitter(wal.Sync, 0, 0)
	var wait time.Duration
	_, err = layer(tr, root, "store.commit", batches, func(i int) error {
		lo, hi := batch(i)
		var n int64
		for j := lo; j < hi; j++ {
			if err := wal.AppendOwned(fps[j], uint32(len(chunks[j])), chunks[j]); err != nil {
				return err
			}
			n += int64(len(chunks[j]))
		}
		t0 := time.Now()
		err := gc.Enqueue(n).Wait()
		wait += time.Since(t0)
		return err
	})
	gc.Close()
	if err = errors.Join(err, wal.Close()); err != nil {
		return nil, err
	}
	m["store.commit_wait_us"] = wait.Seconds() * 1e6 / float64(batches)

	// diskindex: the server's geometry holding client 0's fingerprints;
	// client 1's fingerprints are looked up, so the hit share is the
	// workload's shared fraction.
	fs, err := diskindex.OpenFileStore(filepath.Join(dir, "index.db"))
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	ix, err := diskindex.New(fs, serverIndex, nil)
	if err != nil {
		return nil, err
	}
	for j, f := range fps[:split] {
		if err := ix.Insert(fp.Entry{FP: f, CID: fp.ContainerID(j / 1024)}); err != nil {
			return nil, err
		}
	}
	sec, err = layer(tr, root, "diskindex.scan", 1, func(int) error {
		return ix.Scan(diskindex.DefaultScanBuckets, func(*diskindex.Window) error { return nil })
	})
	if err != nil {
		return nil, err
	}
	m["diskindex.scan_mbps"] = mbps(serverIndex.SizeBytes(), sec)
	probes := fps[split:]
	sec, err = layer(tr, root, "diskindex.lookup", (len(probes)+batchChunks-1)/batchChunks, func(i int) error {
		for _, f := range probes[i*batchChunks : min((i+1)*batchChunks, len(probes))] {
			if _, err := ix.Lookup(f); err != nil && !errors.Is(err, diskindex.ErrNotFound) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["diskindex.lookup_us"] = sec * 1e6 / float64(max(len(probes), 1))

	// container: pack the distinct chunks into containers, then time the
	// segmented log's Append+Flush and Load.
	repo, err := store.OpenSegRepo(filepath.Join(dir, "segs"), 0)
	if err != nil {
		return nil, err
	}
	defer repo.Close()
	packed := packContainers(fps, chunks)
	var ids []fp.ContainerID
	var stored int64
	sec, err = layer(tr, root, "container.append", len(packed), func(i int) error {
		id, err := repo.Append(packed[i])
		if err != nil {
			return err
		}
		ids = append(ids, id)
		stored += packed[i].DataBytes()
		return repo.Flush()
	})
	if err != nil {
		return nil, err
	}
	m["container.append_mbps"] = mbps(stored, sec)
	loaded := make([]*container.Container, len(ids))
	var buf []byte
	sec, err = layer(tr, root, "container.load", len(ids), func(i int) error {
		c, err := repo.Load(ids[i])
		if err != nil {
			return err
		}
		// Copy every chunk out, as a restore batch does: Load maps the
		// container without reading its data.
		for _, cm := range c.Meta {
			b, _ := c.Chunk(cm.FP)
			buf = append(buf[:0], b...)
		}
		loaded[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["container.load_mbps"] = mbps(stored, sec)

	// lpc: every loaded container cached, every chunk looked up in
	// restore order.
	cache := lpc.New(16)
	for _, c := range loaded {
		cache.Insert(c.ID, c.Meta, c)
	}
	sec, _ = layer(tr, root, "lpc", batches, func(i int) error {
		lo, hi := batch(i)
		for _, f := range fps[lo:hi] {
			cache.Lookup(f)
		}
		return nil
	})
	m["lpc.lookup_ns"] = sec * 1e9 / float64(len(fps))
	return rp, nil
}

// layer runs n call batches of one layer, each in its own span under a
// layer span, and returns the seconds they took together.
func layer(tr *Tracer, parent int, name string, n int, fn func(i int) error) (float64, error) {
	span := tr.Start("replay."+name, parent, -1)
	defer tr.End(span)
	var sec float64
	for i := 0; i < n; i++ {
		id := tr.Start(name, span, -1)
		t0 := time.Now()
		err := fn(i)
		sec += time.Since(t0).Seconds()
		tr.End(id)
		if err != nil {
			return sec, fmt.Errorf("replay %s: %w", name, err)
		}
	}
	return sec, nil
}

// pipeReplay sends n frames over net.Pipe and returns the seconds until
// the receiver has decoded the last one.
func pipeReplay(tr *Tracer, parent int, name string, n int, frame func(i int) any) (float64, error) {
	a, b := net.Pipe()
	tx, rx := proto.NewConn(a), proto.NewConn(b)
	defer tx.Close()
	defer rx.Close()
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < n && err == nil; i++ {
			_, err = rx.Recv()
		}
		done <- err
	}()
	t0 := time.Now()
	_, err := layer(tr, parent, name, n, func(i int) error { return tx.Send(frame(i)) })
	if err != nil {
		tx.Close() // unblocks the receiver
		<-done
		return 0, err
	}
	if err := <-done; err != nil {
		return 0, fmt.Errorf("replay %s: %w", name, err)
	}
	return time.Since(t0).Seconds(), nil
}

// packContainers fills default-size containers with the distinct chunks
// in order, as dedup-2's chunk storing does.
func packContainers(fps []fp.FP, chunks [][]byte) []*container.Container {
	var out []*container.Container
	w := container.NewWriter(container.DefaultSize, false)
	seen := make(map[fp.FP]bool, len(fps))
	for i, f := range fps {
		if seen[f] {
			continue
		}
		seen[f] = true
		if !w.Add(f, uint32(len(chunks[i])), chunks[i]) {
			out = append(out, w.Seal(0))
			w.Add(f, uint32(len(chunks[i])), chunks[i])
		}
	}
	if !w.Empty() {
		out = append(out, w.Seal(0))
	}
	return out
}

// readFiles reads the regular files under dir in path order until limit
// bytes have been read.
func readFiles(dir string, limit int64) ([][]byte, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out [][]byte
	var n int64
	for _, p := range paths {
		if n >= limit {
			break
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		n += int64(len(b))
	}
	return out, nil
}

func mbps(bytes int64, sec float64) float64 { return float64(bytes) / 1e6 / sec }
