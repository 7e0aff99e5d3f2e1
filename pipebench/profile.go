package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile folding. The testbed owns its simulation engine, so no
// span can sit inside an experiment from outside; a CPU profile of the
// traced run is folded into per-package shares instead. Each sample is
// charged to the innermost frame that belongs to one of the repository's
// packages, or to the runtime's allocator and garbage collector; frames
// of the standard library (sort, container/heap, encoding/binary,
// syscalls) are charged to the repository package that called them.

// sharePackages are the repository packages reported as <pkg>.cpu_share.
var sharePackages = []string{"sim", "kernel", "vnet", "ovs", "hyper", "ebpf", "control", "tracedb"}

// mallocGC marks runtime functions that allocate, sweep, mark or scan.
var mallocGC = []string{"malloc", "gc", "GC", "scan", "mark", "sweep", "mspan", "mheap", "mcache", "mcentral",
	"heapBits", "memclr", "wbBuf", "writeBarrier", "nextFree", "findObject", "greyobject", "scav", "newobject",
	"makeslice", "growslice", "makemap", "newarray"}

// bucketOf names the share a function's self time goes to, "" when the
// frame should pass its time up to its caller.
func bucketOf(fn string) string {
	const repo = "vnettracer/internal/"
	if strings.HasPrefix(fn, repo) {
		pkg := fn[len(repo):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg
	}
	if strings.HasPrefix(fn, "runtime.") {
		for _, m := range mallocGC {
			if strings.Contains(fn[len("runtime."):], m) {
				return "runtime.malloc_gc"
			}
		}
	}
	return ""
}

// foldProfile returns each bucket's share of the profile's samples.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		bucket := "other"
	walk:
		for _, locID := range s.locs {
			for _, fnID := range p.locFuncs[locID] {
				if b := bucketOf(p.strings[p.funcNames[fnID]]); b != "" {
					bucket = b
					break walk
				}
			}
		}
		counts[bucket] += n
	}
	shares := make(map[string]float64)
	for _, pkg := range sharePackages {
		shares[pkg+".cpu_share"] = 0
	}
	shares["runtime.malloc_gc_share"] = 0
	if total == 0 {
		return shares, errors.New("profile: no samples")
	}
	for b, n := range counts {
		if b == "runtime.malloc_gc" {
			shares["runtime.malloc_gc_share"] = float64(n) / float64(total)
		} else if _, ok := shares[b+".cpu_share"]; ok {
			shares[b+".cpu_share"] = float64(n) / float64(total)
		}
	}
	return shares, nil
}

// profile is the part of a pprof profile the folding needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes the protobuf fields of perftools.profiles.Profile
// it needs: sample (2), location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]int64)}
	err := eachField(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(msg, func(f int, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, m)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, m); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(m, func(lf int, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, errors.New("profile: function name out of the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field in either encoding:
// packed (wire type 2) or one value per field (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, msg []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
