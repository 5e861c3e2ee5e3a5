package chunklog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"debar/internal/fp"
)

func walRecord(i int) (fp.FP, []byte) {
	data := make([]byte, 64+i)
	for j := range data {
		data[j] = byte(i + j)
	}
	return fp.New(data), data
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, fps, err := OpenWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 0 {
		t.Fatalf("fresh WAL recovered %d fps", len(fps))
	}
	const n = 10
	for i := 0; i < n; i++ {
		f, data := walRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, fps, err := OpenWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(fps) != n {
		t.Fatalf("recovered %d fps, want %d", len(fps), n)
	}
	i := 0
	err = l2.Iterate(func(r Record) error {
		f, data := walRecord(i)
		if r.FP != f || string(r.Data) != string(data) {
			t.Fatalf("record %d mismatch", i)
		}
		if fps[i] != f {
			t.Fatalf("recovered fp %d mismatch", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("iterated %d records, want %d", i, n)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, _, err := OpenWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		f, data := walRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: drop its final 10 bytes.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-10); err != nil {
		t.Fatal(err)
	}

	l2, fps, err := OpenWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != n-1 {
		t.Fatalf("recovered %d fps after torn tail, want %d", len(fps), n-1)
	}
	if got := l2.Count(); got != n-1 {
		t.Fatalf("Count = %d after torn tail, want %d", got, n-1)
	}
	// The log must append cleanly after recovery.
	f, data := walRecord(99)
	if err := l2.Append(f, uint32(len(data)), data); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, fps, err = OpenWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != n || fps[n-1] != f {
		t.Fatalf("post-recovery append not recovered (got %d fps)", len(fps))
	}
}

func TestWALCorruptMiddleTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, _, err := OpenWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for i := 0; i < 4; i++ {
		f, data := walRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, int64(walHeader+len(data)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside record 2's payload.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	off := sizes[0] + sizes[1] + walHeader + 3
	if _, err := f.WriteAt([]byte{0xFF}, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, fps, err := OpenWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery keeps the valid prefix: records 0 and 1.
	if len(fps) != 2 {
		t.Fatalf("recovered %d fps after mid-log corruption, want 2", len(fps))
	}
}

// TestWALSyncFailureKeepsDirty is the regression test for the failed-
// fsync bug: a Sync that errors must leave the dirty counter intact so
// a later Sync retries the unflushed tail. A counter reset on the error
// path let a subsequent Sync (or Close) return success while appended
// records had never reached the disk.
func TestWALSyncFailureKeepsDirty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, _, err := OpenWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	l.SetExternalSync() // caller-scheduled syncs, as under the group committer

	const n = 3
	for i := 0; i < n; i++ {
		f, data := walRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}

	injected := errors.New("injected media failure")
	failing := true
	l.SetSyncFailFunc(func() error {
		if failing {
			return injected
		}
		return nil
	})

	if err := l.Sync(); !errors.Is(err, injected) {
		t.Fatalf("Sync with failing media = %v, want injected error", err)
	}
	// The tail must still be dirty: a retry reaches the sync layer again
	// rather than short-circuiting on a zeroed counter.
	if err := l.Sync(); !errors.Is(err, injected) {
		t.Fatalf("retry after failed Sync = %v, want injected error (dirty counter was reset)", err)
	}

	failing = false
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after media recovers: %v", err)
	}
	// Now the counter is drained: another Sync is a no-op and never
	// consults the (re-armed) failure hook.
	failing = true
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync with nothing dirty = %v, want nil no-op", err)
	}

	l.SetSyncFailFunc(nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, fps, err := OpenWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != n {
		t.Fatalf("recovered %d fps, want %d", len(fps), n)
	}
}

// TestWALPreallocRecovery: a zero-filled tail past the last record — the
// shape a torn zero-filled write leaves, and the shape WAL files written
// by builds that preallocated ahead of the append cursor still carry —
// must be recovered like a torn record. Recovery accepts exactly the
// appended records, truncates the zeros, and appending resumes cleanly.
func TestWALPreallocRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, _, err := OpenWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		f, data := walRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero-fill past the logical end up to the next 4 KB boundary.
	const step = int64(4096)
	logical := zeroFillTo(t, path, step)

	l2, fps, err := OpenWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != n {
		t.Fatalf("recovered %d fps under a zero-filled tail, want %d", len(fps), n)
	}
	for i, f := range fps {
		want, _ := walRecord(i)
		if f != want {
			t.Fatalf("recovered fp %d mismatch", i)
		}
	}
	// Recovery truncated the zero tail, so appends restart from the
	// logical end.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != logical {
		t.Fatalf("zero tail not truncated: size %d, want %d", st.Size(), logical)
	}
	f, data := walRecord(99)
	if err := l2.Append(f, uint32(len(data)), data); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, fps, err = OpenWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != n+1 || fps[n] != f {
		t.Fatalf("post-recovery append lost (got %d fps)", len(fps))
	}
}

// zeroFillTo writes zeros from the end of the file at path up to the next
// multiple of step and returns the file's size before the fill.
func zeroFillTo(t *testing.T, path string, step int64) int64 {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	end := st.Size()
	to := (end/step + 1) * step
	if _, err := f.WriteAt(make([]byte, to-end), end); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return end
}

func TestWALResetDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, _, err := OpenWAL(path, 0) // default fsync batching
	if err != nil {
		t.Fatal(err)
	}
	f, data := walRecord(1)
	if err := l.Append(f, uint32(len(data)), data); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, fps, err := OpenWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 0 {
		t.Fatalf("reset WAL recovered %d fps, want 0", len(fps))
	}
}
