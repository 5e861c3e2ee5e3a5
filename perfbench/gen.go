package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
)

// Spec sizes one generated dataset.
type Spec struct {
	Clients        int
	FilesPerClient int
	ClientBytes    int64   // logical bytes of one client's dataset
	SharedFrac     float64 // fraction of each client's files identical in every client
	EditFrac       float64 // fraction of the dataset's bytes changed per generation
}

// Digest is the SHA-256 of one file's contents.
type Digest [32]byte

// Dataset is a seeded set of per-client directories on disk. Client i's
// files live under Dir(i); the shared files appear in every client
// directory with the same contents. The same seed and spec always yield
// byte-identical files in every generation.
type Dataset struct {
	spec  Spec
	seed  uint64
	root  string
	gen   int
	files []*genFile // shared files first, then each client's own
	buf   []byte
}

type genFile struct {
	name   string // path relative to a client directory
	client int    // owning client; -1 when shared by every client
	size   int64
	digest Digest
}

// RNG stream labels: each (label, ...) tuple keys an independent stream.
const (
	labelSizes = iota + 1
	labelBase
	labelEdits
	labelInsert
)

// stream returns the ChaCha8 stream keyed by seed and parts.
func stream(seed uint64, parts ...uint64) *rand.ChaCha8 {
	h := sha256.New()
	var b [8]byte
	for _, p := range append([]uint64{seed}, parts...) {
		binary.LittleEndian.PutUint64(b[:], p)
		h.Write(b[:])
	}
	var key [32]byte
	copy(key[:], h.Sum(nil))
	return rand.NewChaCha8(key)
}

// subSeed derives an independent seed, e.g. one per ingest round.
func subSeed(seed, label uint64) uint64 {
	return rand.New(stream(seed, label)).Uint64()
}

// NewDataset writes generation 1 of a dataset under root.
func NewDataset(root string, seed uint64, spec Spec) (*Dataset, error) {
	d := &Dataset{spec: spec, seed: seed, root: root, gen: 1}
	nShared := int(float64(spec.FilesPerClient)*spec.SharedFrac + 0.5)
	mean := spec.ClientBytes / int64(spec.FilesPerClient)
	sizes := rand.New(stream(seed, labelSizes))
	add := func(name string, client int) {
		// Uniform in [mean/2, 3*mean/2): the client total stays near ClientBytes.
		size := mean/2 + sizes.Int64N(mean)
		d.files = append(d.files, &genFile{name: name, client: client, size: size})
	}
	for j := 0; j < nShared; j++ {
		add(fmt.Sprintf("shared/f%04d.bin", j), -1)
	}
	for c := 0; c < spec.Clients; c++ {
		for j := nShared; j < spec.FilesPerClient; j++ {
			add(fmt.Sprintf("own/f%04d.bin", j), c)
		}
	}
	for c := 0; c < spec.Clients; c++ {
		for _, sub := range []string{"shared", "own"} {
			if err := os.MkdirAll(filepath.Join(d.Dir(c), sub), 0o755); err != nil {
				return nil, err
			}
		}
	}
	for i, f := range d.files {
		d.buf = grow(d.buf, int(f.size))
		stream(seed, labelBase, uint64(i)).Read(d.buf)
		if err := d.write(f, d.buf); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Dir is client c's directory.
func (d *Dataset) Dir(c int) string { return filepath.Join(d.root, fmt.Sprintf("c%d", c)) }

// Digests returns, per client, the current digest of every file keyed by
// its path relative to the client directory.
func (d *Dataset) Digests() []map[string]Digest {
	out := make([]map[string]Digest, d.spec.Clients)
	for c := range out {
		out[c] = make(map[string]Digest)
		for _, f := range d.files {
			if f.client < 0 || f.client == c {
				out[c][f.name] = f.digest
			}
		}
	}
	return out
}

// edit is one planned change to a file: at pos (a fraction of the file's
// length) insert, delete or overwrite n bytes.
type edit struct {
	kind int // 0 insert, 1 delete, 2 overwrite
	pos  float64
	n    int
}

// Advance applies the next generation's seeded inserts, deletes and
// overwrites. Files are picked with probability proportional to their
// size until the edited bytes reach EditFrac of the dataset.
func (d *Dataset) Advance() error {
	d.gen++
	r := rand.New(stream(d.seed, labelEdits, uint64(d.gen)))
	var total int64
	cum := make([]int64, len(d.files))
	for i, f := range d.files {
		total += f.size
		cum[i] = total
	}
	plan := make(map[int][]edit)
	for budget := int64(float64(total) * d.spec.EditFrac); budget > 0; {
		at := r.Int64N(total)
		i := 0
		for cum[i] <= at {
			i++
		}
		e := edit{kind: r.IntN(3), pos: r.Float64(), n: 512 + r.IntN(32<<10)}
		plan[i] = append(plan[i], e)
		budget -= int64(e.n)
	}
	for i, f := range d.files {
		edits := plan[i]
		if len(edits) == 0 {
			continue
		}
		data, err := os.ReadFile(filepath.Join(d.Dir(max(f.client, 0)), f.name))
		if err != nil {
			return err
		}
		ins := stream(d.seed, labelInsert, uint64(d.gen), uint64(i))
		for _, e := range edits {
			data = apply(data, e, ins)
		}
		if err := d.write(f, data); err != nil {
			return err
		}
	}
	return nil
}

// apply performs one edit, drawing new bytes from src.
func apply(data []byte, e edit, src *rand.ChaCha8) []byte {
	off := int(e.pos * float64(len(data)))
	n := min(e.n, len(data)-off)
	switch e.kind {
	case 0:
		fresh := make([]byte, e.n)
		src.Read(fresh)
		out := make([]byte, 0, len(data)+e.n)
		out = append(append(append(out, data[:off]...), fresh...), data[off:]...)
		return out
	case 1:
		if n >= len(data) { // never empty a file
			n = len(data) - 1
		}
		return append(data[:off], data[off+n:]...)
	default:
		src.Read(data[off : off+n])
		return data
	}
}

// write stores f's contents in every directory that holds f. Each file
// is fsynced, so no writeback of generated data competes with the
// measured calls for the disk.
func (d *Dataset) write(f *genFile, data []byte) error {
	f.size = int64(len(data))
	f.digest = sha256.Sum256(data)
	for c := 0; c < d.spec.Clients; c++ {
		if f.client >= 0 && f.client != c {
			continue
		}
		if err := writeSynced(filepath.Join(d.Dir(c), f.name), data); err != nil {
			return err
		}
	}
	return nil
}

func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}

func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
