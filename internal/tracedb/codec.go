// Record codec for sealed extents: the fixed 48-byte core.Record stream
// is compressed with delta-of-delta timestamps, zigzag-varint field
// deltas, and a segment-local flow dictionary. The blob is self-describing
// (magic, version, record count, tracepoint ID), so a spilled extent file
// can be decoded with no external metadata — the property that makes the
// on-disk format crash-safe: either the rename landed and the file decodes
// in full, or it didn't and the file does not exist.
//
// Layout (version 1):
//
//	magic "vntx" | version byte | uvarint count | uvarint tpid
//	record[0]:  raw uvarint traceID, timeNs, len, cpu, seq; flow ref
//	record[i>0]: zigzag-varint deltas for traceID, len, cpu, seq;
//	             delta-of-delta zigzag varint for timeNs; flow ref
//
// A flow ref is a uvarint index into the dictionary of distinct
// (srcIP, dstIP, srcPort, dstPort, proto, dir) tuples seen so far in this
// extent; an index equal to the dictionary's current size introduces a new
// tuple inline (uvarint srcIP, dstIP, srcPort, dstPort, then proto and dir
// bytes). Traced traffic concentrates on few flows per tracepoint, so the
// ref is almost always one byte and the 18 bytes of tuple state amortize
// to nothing.
//
// All deltas are computed with wrap-around arithmetic at the field's width
// and reversed the same way, so encode→decode round-trips every possible
// record exactly, including adversarial timestamps near the uint64 edge.
package tracedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"vnettracer/internal/core"
)

const extentVersion = 1

var extentMagic = [4]byte{'v', 'n', 't', 'x'}

// errStopScan signals an early visitor stop through the decode path; it is
// never returned to callers.
var errStopScan = errors.New("tracedb: scan stopped")

// flowTuple is the per-record 5-tuple plus direction — the fields that
// repeat across records and live in the extent's flow dictionary.
type flowTuple struct {
	srcIP, dstIP     uint32
	srcPort, dstPort uint16
	proto, dir       uint8
}

func tupleOf(r *core.Record) flowTuple {
	return flowTuple{
		srcIP: r.SrcIP, dstIP: r.DstIP,
		srcPort: r.SrcPort, dstPort: r.DstPort,
		proto: r.Proto, dir: r.Dir,
	}
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// delta32/delta64 compute wrap-around field deltas sized to the field, so
// the zigzag encoding stays short for small moves in either direction.
func delta32(cur, prev uint32) int64 { return int64(int32(cur - prev)) }
func delta64(cur, prev uint64) int64 { return int64(cur - prev) }

// appendExtentBlob compresses recs (all from one tracepoint) into the
// extent wire form, appending to dst.
func appendExtentBlob(dst []byte, tpid uint32, recs []core.Record) []byte {
	dst = append(dst, extentMagic[:]...)
	dst = append(dst, extentVersion)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	dst = binary.AppendUvarint(dst, uint64(tpid))

	dict := make(map[flowTuple]uint64, 8)
	var prev core.Record
	var prevTimeDelta uint64
	for i := range recs {
		r := &recs[i]
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(r.TraceID))
			dst = binary.AppendUvarint(dst, r.TimeNs)
			dst = binary.AppendUvarint(dst, uint64(r.Len))
			dst = binary.AppendUvarint(dst, uint64(r.CPU))
			dst = binary.AppendUvarint(dst, r.Seq)
		} else {
			dst = binary.AppendUvarint(dst, zigzag(delta32(r.TraceID, prev.TraceID)))
			td := r.TimeNs - prev.TimeNs // wrap-around delta
			dst = binary.AppendUvarint(dst, zigzag(delta64(td, prevTimeDelta)))
			prevTimeDelta = td
			dst = binary.AppendUvarint(dst, zigzag(delta32(r.Len, prev.Len)))
			dst = binary.AppendUvarint(dst, zigzag(delta32(r.CPU, prev.CPU)))
			dst = binary.AppendUvarint(dst, zigzag(delta64(r.Seq, prev.Seq)))
		}
		tup := tupleOf(r)
		if idx, ok := dict[tup]; ok {
			dst = binary.AppendUvarint(dst, idx)
		} else {
			idx = uint64(len(dict))
			dict[tup] = idx
			dst = binary.AppendUvarint(dst, idx)
			dst = binary.AppendUvarint(dst, uint64(r.SrcIP))
			dst = binary.AppendUvarint(dst, uint64(r.DstIP))
			dst = binary.AppendUvarint(dst, uint64(r.SrcPort))
			dst = binary.AppendUvarint(dst, uint64(r.DstPort))
			dst = append(dst, r.Proto, r.Dir)
		}
		prev = *r
	}
	return dst
}

// scanExtentStream decodes one extent from a byte stream, calling fn for
// each record in stored order until fn returns false. It never allocates
// proportionally to the header's count field — records stream one at a
// time and the flow dictionary only grows by consuming input bytes — so a
// forged count cannot balloon memory. A visitor stop is reported as
// errStopScan so callers can distinguish it from a corrupt stream.
func scanExtentStream(br io.ByteReader, fn func(core.Record) bool) error {
	d, err := newExtentDecoder(br)
	if err != nil {
		return err
	}
	for {
		r, err := d.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if !fn(r) {
			return errStopScan
		}
	}
}

// decodeExtentBytes decodes a whole in-memory extent blob. The returned
// slice is freshly allocated; its initial capacity is bounded by the input
// length (a record costs at least 6 encoded bytes), never by the header's
// count field alone.
func decodeExtentBytes(blob []byte) (tpid uint32, recs []core.Record, err error) {
	cur := &byteCursor{b: blob}
	d, err := newExtentDecoder(cur)
	if err != nil {
		return 0, nil, err
	}
	capHint := d.count
	if max := uint64(len(blob))/6 + 1; capHint > max {
		capHint = max
	}
	recs = make([]core.Record, 0, capHint)
	for {
		r, err := d.next()
		if err == io.EOF {
			if cur.off != len(blob) {
				return d.tpid, nil, fmt.Errorf("tracedb: %d trailing bytes after extent body", len(blob)-cur.off)
			}
			return d.tpid, recs, nil
		}
		if err != nil {
			return d.tpid, nil, err
		}
		recs = append(recs, r)
	}
}

// byteCursor is a minimal io.ByteReader over a slice, avoiding the
// bytes.Reader allocation on the hot scan path.
type byteCursor struct {
	b   []byte
	off int
}

func (c *byteCursor) ReadByte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, io.EOF
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func decodeExtentHeader(br io.ByteReader) (count uint64, tpid uint32, err error) {
	for i := range extentMagic {
		b, err := br.ReadByte()
		if err != nil {
			return 0, 0, fmt.Errorf("tracedb: extent header: %w", err)
		}
		if b != extentMagic[i] {
			return 0, 0, fmt.Errorf("tracedb: bad extent magic byte %d: %#x", i, b)
		}
	}
	ver, err := br.ReadByte()
	if err != nil {
		return 0, 0, fmt.Errorf("tracedb: extent header: %w", err)
	}
	if ver != extentVersion {
		return 0, 0, fmt.Errorf("tracedb: unsupported extent version %d", ver)
	}
	count, err = binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, fmt.Errorf("tracedb: extent count: %w", err)
	}
	tp, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, fmt.Errorf("tracedb: extent tpid: %w", err)
	}
	if tp > math.MaxUint32 {
		return 0, 0, fmt.Errorf("tracedb: extent tpid %d overflows uint32", tp)
	}
	return count, uint32(tp), nil
}

// extentDecoder holds the rolling state of one streaming decode.
type extentDecoder struct {
	br            io.ByteReader
	count         uint64
	tpid          uint32
	dict          []flowTuple
	prev          core.Record
	prevTimeDelta uint64
	idx           uint64
}

func newExtentDecoder(br io.ByteReader) (*extentDecoder, error) {
	count, tpid, err := decodeExtentHeader(br)
	if err != nil {
		return nil, err
	}
	return &extentDecoder{br: br, count: count, tpid: tpid}, nil
}

// next decodes one record; io.EOF means the stream ended cleanly after the
// declared count.
func (d *extentDecoder) next() (core.Record, error) {
	if d.idx >= d.count {
		return core.Record{}, io.EOF
	}
	var r core.Record
	r.TPID = d.tpid
	if d.idx == 0 {
		v, err := binary.ReadUvarint(d.br)
		if err != nil {
			return r, fmt.Errorf("tracedb: record 0 traceID: %w", err)
		}
		if v > math.MaxUint32 {
			return r, fmt.Errorf("tracedb: record 0 traceID %d overflows uint32", v)
		}
		r.TraceID = uint32(v)
		if r.TimeNs, err = binary.ReadUvarint(d.br); err != nil {
			return r, fmt.Errorf("tracedb: record 0 timeNs: %w", err)
		}
		if v, err = binary.ReadUvarint(d.br); err != nil || v > math.MaxUint32 {
			return r, fmt.Errorf("tracedb: record 0 len: %w", errOrOverflow(err, v))
		}
		r.Len = uint32(v)
		if v, err = binary.ReadUvarint(d.br); err != nil || v > math.MaxUint32 {
			return r, fmt.Errorf("tracedb: record 0 cpu: %w", errOrOverflow(err, v))
		}
		r.CPU = uint32(v)
		if r.Seq, err = binary.ReadUvarint(d.br); err != nil {
			return r, fmt.Errorf("tracedb: record 0 seq: %w", err)
		}
	} else {
		d1, err := binary.ReadUvarint(d.br)
		if err != nil {
			return r, fmt.Errorf("tracedb: record %d traceID delta: %w", d.idx, err)
		}
		r.TraceID = d.prev.TraceID + uint32(unzigzag(d1))
		dod, err := binary.ReadUvarint(d.br)
		if err != nil {
			return r, fmt.Errorf("tracedb: record %d time dod: %w", d.idx, err)
		}
		td := d.prevTimeDelta + uint64(unzigzag(dod))
		d.prevTimeDelta = td
		r.TimeNs = d.prev.TimeNs + td
		if d1, err = binary.ReadUvarint(d.br); err != nil {
			return r, fmt.Errorf("tracedb: record %d len delta: %w", d.idx, err)
		}
		r.Len = d.prev.Len + uint32(unzigzag(d1))
		if d1, err = binary.ReadUvarint(d.br); err != nil {
			return r, fmt.Errorf("tracedb: record %d cpu delta: %w", d.idx, err)
		}
		r.CPU = d.prev.CPU + uint32(unzigzag(d1))
		if d1, err = binary.ReadUvarint(d.br); err != nil {
			return r, fmt.Errorf("tracedb: record %d seq delta: %w", d.idx, err)
		}
		r.Seq = d.prev.Seq + uint64(unzigzag(d1))
	}

	ref, err := binary.ReadUvarint(d.br)
	if err != nil {
		return r, fmt.Errorf("tracedb: record %d flow ref: %w", d.idx, err)
	}
	switch {
	case ref < uint64(len(d.dict)):
		tup := d.dict[ref]
		r.SrcIP, r.DstIP = tup.srcIP, tup.dstIP
		r.SrcPort, r.DstPort = tup.srcPort, tup.dstPort
		r.Proto, r.Dir = tup.proto, tup.dir
	case ref == uint64(len(d.dict)):
		v, err := binary.ReadUvarint(d.br)
		if err != nil || v > math.MaxUint32 {
			return r, fmt.Errorf("tracedb: record %d srcIP: %w", d.idx, errOrOverflow(err, v))
		}
		r.SrcIP = uint32(v)
		if v, err = binary.ReadUvarint(d.br); err != nil || v > math.MaxUint32 {
			return r, fmt.Errorf("tracedb: record %d dstIP: %w", d.idx, errOrOverflow(err, v))
		}
		r.DstIP = uint32(v)
		if v, err = binary.ReadUvarint(d.br); err != nil || v > math.MaxUint16 {
			return r, fmt.Errorf("tracedb: record %d srcPort: %w", d.idx, errOrOverflow(err, v))
		}
		r.SrcPort = uint16(v)
		if v, err = binary.ReadUvarint(d.br); err != nil || v > math.MaxUint16 {
			return r, fmt.Errorf("tracedb: record %d dstPort: %w", d.idx, errOrOverflow(err, v))
		}
		r.DstPort = uint16(v)
		if r.Proto, err = d.br.ReadByte(); err != nil {
			return r, fmt.Errorf("tracedb: record %d proto: %w", d.idx, err)
		}
		if r.Dir, err = d.br.ReadByte(); err != nil {
			return r, fmt.Errorf("tracedb: record %d dir: %w", d.idx, err)
		}
		d.dict = append(d.dict, tupleOf(&r))
	default:
		return r, fmt.Errorf("tracedb: record %d flow ref %d beyond dictionary size %d",
			d.idx, ref, len(d.dict))
	}

	d.prev = r
	d.idx++
	return r, nil
}

func errOrOverflow(err error, v uint64) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("value %d overflows field width", v)
}
