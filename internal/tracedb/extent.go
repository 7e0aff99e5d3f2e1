// Extent is the segment store's unit of sealed storage. (The name avoids
// colliding with the exported latency-decomposition Segment alias in the
// root package.) An Extent is immutable from the moment it is sealed:
// either its compressed blob stays resident in memory, or — when the DB
// has a data directory — the blob is spilled to disk at seal time and
// only the metadata (count, time range, trace-ID bloom filter) stays
// resident. Eviction drops whole extents; nothing ever rewrites one.
package tracedb

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"vnettracer/internal/core"
)

// extentOverheadBytes approximates one Extent's fixed in-memory footprint
// (struct fields, slice headers, path string) for residency accounting.
const extentOverheadBytes = 112

// Extent is one sealed, immutable, compressed segment of a table's
// record history. Extents are created by the table's seal path; the
// exported accessors exist for storage introspection (vntquery storage,
// tests, benchmarks).
type Extent struct {
	seq       int
	count     int
	minTimeNs uint64
	maxTimeNs uint64
	filter    bloom

	// blob holds the compressed bytes while resident; path points at the
	// spilled file instead. Exactly one of the two is set after seal.
	blob []byte
	path string
	// storedBytes is the compressed size (== len(blob) == file size).
	storedBytes int
}

// SealRecords compresses a record slice into a standalone extent outside
// any table — for offline tools and benchmarks that want the codec
// without a DB.
func SealRecords(tpid uint32, recs []core.Record) *Extent {
	blob := appendExtentBlob(make([]byte, 0, len(recs)*12), tpid, recs)
	e := newExtent(0, recs, len(blob))
	e.blob = blob
	return e
}

// newExtent builds the metadata of the extent recs seal into (one
// table's next run of records, batch aligned by construction): count,
// time range and bloom filter. The caller attaches the encoded blob of
// storedBytes bytes, resident or spilled.
func newExtent(seq int, recs []core.Record, storedBytes int) *Extent {
	e := &Extent{seq: seq, count: len(recs), filter: newBloom(len(recs)), storedBytes: storedBytes}
	if len(recs) > 0 {
		e.minTimeNs, e.maxTimeNs = recs[0].TimeNs, recs[0].TimeNs
	}
	for i := range recs {
		t := recs[i].TimeNs
		if t < e.minTimeNs {
			e.minTimeNs = t
		}
		if t > e.maxTimeNs {
			e.maxTimeNs = t
		}
		e.filter.add(recs[i].TraceID)
	}
	return e
}

// spill writes the extent's encoded blob to dir and records the path; the
// extent keeps no bytes in memory. The write goes to a temp file first
// and is renamed into place, so a crash mid-write never leaves a
// half-extent under the final name; the blob's self-describing header
// makes the landed file decodable on its own.
func (e *Extent) spill(dir string, tpid uint32, blob []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(dir, fmt.Sprintf("tp%08x-%06d.vnx", tpid, e.seq))
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	e.path = final
	return nil
}

// remove deletes a spilled extent's file (eviction); resident extents
// just drop their reference when the table forgets them.
func (e *Extent) remove() {
	if e.path != "" {
		os.Remove(e.path)
	}
}

// extentReaders pools the read buffers of spilled-extent scans, so a
// trace-ID lookup that decodes one extent does not allocate 32 KiB.
var extentReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 32*1024) }}

// scan streams the extent's records in stored order. A visitor stop is
// not an error; a decode or file-read failure is.
func (e *Extent) scan(fn func(core.Record) bool) error {
	var err error
	if e.blob != nil {
		err = scanExtentStream(&byteCursor{b: e.blob}, fn)
	} else {
		f, openErr := os.Open(e.path)
		if openErr != nil {
			return openErr
		}
		br := extentReaders.Get().(*bufio.Reader)
		br.Reset(f)
		err = scanExtentStream(br, fn)
		br.Reset(nil) // drop the file so the pool does not pin it
		extentReaders.Put(br)
		f.Close()
	}
	if err == errStopScan {
		return nil
	}
	return err
}

// mayContain reports whether the extent can hold records for a trace ID
// (false positives possible, false negatives impossible).
func (e *Extent) mayContain(id uint32) bool { return e.filter.mayContain(id) }

// Count returns the number of records sealed into the extent.
func (e *Extent) Count() int { return e.count }

// StoredBytes returns the compressed size in bytes (resident or on disk).
func (e *Extent) StoredBytes() int { return e.storedBytes }

// Spilled reports whether the blob lives on disk rather than in memory.
func (e *Extent) Spilled() bool { return e.path != "" }

// Path returns the spilled file path, empty while resident.
func (e *Extent) Path() string { return e.path }

// TimeRange returns the raw (unaligned) timestamp bounds of the extent's
// records.
func (e *Extent) TimeRange() (minNs, maxNs uint64) { return e.minTimeNs, e.maxTimeNs }

// residentBytes is the extent's in-memory footprint: blob (when not
// spilled) plus bloom filter plus fixed overhead.
func (e *Extent) residentBytes() uint64 {
	n := uint64(len(e.filter)*8) + extentOverheadBytes
	if e.path == "" {
		n += uint64(len(e.blob))
	}
	return n
}

// bloom is a fixed double-hash Bloom filter over trace IDs, sized at seal
// to ~10 bits and 4 probes per record (~1% false positives). A false
// positive costs one wasted extent decode during ByTraceID; a false
// negative is impossible, so queries never miss records.
type bloom []uint64

func newBloom(n int) bloom {
	bits := n * 10
	if bits < 64 {
		bits = 64
	}
	words := 1
	for words*64 < bits {
		words *= 2
	}
	return make(bloom, words)
}

// mix is splitmix64's finalizer: a cheap, well-distributed 64-bit hash
// from which the two probe sequences derive.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

func (b bloom) add(id uint32) {
	h := mix(uint64(id) + 0x9e3779b97f4a7c15)
	h1, h2 := h, h>>32|h<<32
	mask := uint64(len(b)*64 - 1)
	for i := uint64(0); i < 4; i++ {
		pos := (h1 + i*h2) & mask
		b[pos/64] |= 1 << (pos % 64)
	}
}

func (b bloom) mayContain(id uint32) bool {
	h := mix(uint64(id) + 0x9e3779b97f4a7c15)
	h1, h2 := h, h>>32|h<<32
	mask := uint64(len(b)*64 - 1)
	for i := uint64(0); i < 4; i++ {
		pos := (h1 + i*h2) & mask
		if b[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}
