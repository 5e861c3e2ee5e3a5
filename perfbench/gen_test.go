package main

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var testSpec = Spec{Clients: 2, FilesPerClient: 8, ClientBytes: 1 << 20, SharedFrac: 0.25, EditFrac: 0.05}

// generate builds a dataset and advances it gens-1 times, returning the
// digests of every generation and the final files of every client.
func generate(t *testing.T, seed uint64, gens int) ([][]map[string]Digest, []map[string][]byte) {
	t.Helper()
	d, err := NewDataset(t.TempDir(), seed, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	hist := [][]map[string]Digest{d.Digests()}
	for g := 2; g <= gens; g++ {
		if err := d.Advance(); err != nil {
			t.Fatal(err)
		}
		hist = append(hist, d.Digests())
	}
	files := make([]map[string][]byte, testSpec.Clients)
	for c := range files {
		files[c] = make(map[string][]byte)
		err := filepath.WalkDir(d.Dir(c), func(p string, e os.DirEntry, err error) error {
			if err != nil || !e.Type().IsRegular() {
				return err
			}
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(d.Dir(c), p)
			files[c][rel] = b
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return hist, files
}

func TestDatasetDeterministic(t *testing.T) {
	hist1, files1 := generate(t, 7, 3)
	hist2, files2 := generate(t, 7, 3)
	if !reflect.DeepEqual(hist1, hist2) {
		t.Fatal("same seed gave different digests")
	}
	if !reflect.DeepEqual(files1, files2) {
		t.Fatal("same seed gave different files")
	}
	for c, files := range files1 {
		if len(files) != testSpec.FilesPerClient {
			t.Fatalf("client %d has %d files, want %d", c, len(files), testSpec.FilesPerClient)
		}
		for name, b := range files {
			if Digest(sha256.Sum256(b)) != hist1[2][c][name] {
				t.Fatalf("client %d %s: digest does not match contents", c, name)
			}
		}
	}

	hist3, files3 := generate(t, 8, 3)
	for g := range hist1 {
		for name, dg := range hist1[g][0] {
			if hist3[g][0][name] == dg {
				t.Fatalf("seeds 7 and 8 gave the same digest for generation %d %s", g+1, name)
			}
		}
	}
	if bytes.Equal(files1[0]["own/f0002.bin"], files3[0]["own/f0002.bin"]) {
		t.Fatal("seeds 7 and 8 gave the same file")
	}
}

func TestDatasetShape(t *testing.T) {
	hist, files := generate(t, 1, 4)
	// Shared files are identical in every client, private ones differ.
	for name, b := range files[0] {
		same := bytes.Equal(b, files[1][name])
		if shared := filepath.Dir(name) == "shared"; shared != same {
			t.Fatalf("%s: shared=%v but identical=%v", name, shared, same)
		}
	}
	// Each generation changes some files and keeps most.
	for g := 1; g < len(hist); g++ {
		changed := 0
		for name, dg := range hist[g][0] {
			if hist[g-1][0][name] != dg {
				changed++
			}
		}
		if changed == 0 || changed == len(hist[g][0]) {
			t.Fatalf("generation %d changed %d of %d files", g+1, changed, len(hist[g][0]))
		}
	}
}
