package chunklog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"debar/internal/fp"
)

// View is a stable snapshot of the log taken at a point in time: it covers
// exactly the records appended before View() returned and can be iterated
// WITHOUT holding the log's mutex, so several readers — the per-region
// chunk-store workers of parallel dedup-2 — may replay the same snapshot
// concurrently while dedup-1 keeps appending behind it. Appends past the
// snapshot boundary are invisible to the view; Reset must not be called
// while views are live (the server's dedup-2 pass guarantees this: Reset
// happens only at the end of the pass that owns the views).
type View struct {
	l    *Log
	recs []Record // memory-backed snapshot (nil for WAL logs)
	end  int64    // snapshot byte bound for WAL logs
}

// View captures a snapshot of the current log contents.
func (l *Log) View() (*View, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := &View{l: l}
	if l.file != nil {
		v.end = l.end
	} else {
		// Appends only ever append, so this slice header is an immutable
		// prefix even while the log grows (or is Reset) underneath.
		v.recs = l.recs
	}
	return v, nil
}

// Len returns the number of records the snapshot covers (a scan for
// WAL logs).
func (v *View) Len() (int64, error) {
	if v.l.file == nil {
		return int64(len(v.recs)), nil
	}
	var n int64
	err := v.Iterate(func(Record) error { n++; return nil })
	return n, err
}

// Iterate replays the snapshot's records in append order. Unlike
// Log.Iterate it holds no lock, so any number of views (or iterations of
// one view) may run concurrently; file reads are positional (ReadAt) and
// never touch the append offset. No sequential-read charge is made here:
// the disk cost model meters the lock-serialised path, while concurrent
// replay cost is measured by the wall-clock benchmarks.
func (v *View) Iterate(fn func(Record) error) error {
	if v.l.file != nil {
		return v.iterateWALView(fn)
	}
	for _, r := range v.recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

func (v *View) iterateWALView(fn func(Record) error) error {
	var hdr [walHeader]byte
	off := int64(0)
	for off < v.end {
		if _, err := v.l.file.ReadAt(hdr[:], off); err != nil {
			return fmt.Errorf("chunklog: view iterate: %w", err)
		}
		size := int64(binary.BigEndian.Uint32(hdr[4+fp.Size:]))
		body := make([]byte, fp.Size+4+size)
		copy(body, hdr[4:])
		if _, err := v.l.file.ReadAt(body[fp.Size+4:], off+walHeader); err != nil {
			return fmt.Errorf("chunklog: view iterate: %w", err)
		}
		if binary.BigEndian.Uint32(hdr[:4]) != crc32.Checksum(body, castagnoli) {
			return fmt.Errorf("chunklog: wal record at offset %d fails checksum (media corruption?)", off)
		}
		var r Record
		copy(r.FP[:], body[:fp.Size])
		r.Size = uint32(size)
		r.Data = body[fp.Size+4:]
		if err := fn(r); err != nil {
			return err
		}
		off += walHeader + size
	}
	return nil
}
