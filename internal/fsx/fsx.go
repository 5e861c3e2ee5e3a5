// Package fsx holds the data-only fsync the durable write path uses:
// fdatasync(2) on Linux, a full Sync elsewhere.
package fsx

import "os"

// SyncData flushes f's written data (and the metadata required to read
// it back, such as a changed file size) to stable storage. On Linux this
// is fdatasync(2); elsewhere it is a full Sync.
func SyncData(f *os.File) error { return syncData(f) }
