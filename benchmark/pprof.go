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

// A minimal reader for the runtime/pprof CPU profile format (gzipped
// perftools.profiles.Profile protobuf): just enough to split samples by
// the package of the function they were taken in.

// profileSample is one stack (leaf first) and its sample count.
type profileSample struct {
	stack []string
	count int64
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6
	sampleLocs   = 1
	sampleValues = 2
	locID        = 1
	locLine      = 4
	lineFunction = 1
	functionID   = 1
	functionName = 2
	protoVarint  = 0
	protoFixed64 = 1
	protoBytes   = 2
	protoFixed32 = 5
)

var errBadProfile = errors.New("malformed profile")

// field is one decoded protobuf field: a varint or a byte string.
type field struct {
	num   int
	wire  int
	u     uint64
	bytes []byte
}

// fields splits one protobuf message into its fields.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errBadProfile
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case protoVarint:
			f.u, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errBadProfile
			}
			b = b[n:]
		case protoBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errBadProfile
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case protoFixed64:
			if len(b) < 8 {
				return nil, errBadProfile
			}
			f.u, b = binary.LittleEndian.Uint64(b), b[8:]
		case protoFixed32:
			if len(b) < 4 {
				return nil, errBadProfile
			}
			f.u, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, errBadProfile
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func (f field) varints() ([]uint64, error) {
	if f.wire == protoVarint {
		return []uint64{f.u}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errBadProfile
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzipped CPU profile into stacks of function
// names with their sample counts (the profile's first sample value).
func parseProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}  // function id -> string index
	locFunc := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct{ locs, values []uint64 }
	var samples []rawSample
	for _, f := range top {
		switch f.num {
		case profStrings:
			strs = append(strs, string(f.bytes))
		case profFunction:
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case functionID:
					id = g.u
				case functionName:
					name = g.u
				}
			}
			funcName[id] = name
		case profLocation:
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case locID:
					id = g.u
				case locLine:
					line, err := fields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == lineFunction {
							fns = append(fns, h.u)
						}
					}
				}
			}
			locFunc[id] = fns
		case profSample:
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, g := range sub {
				vs, err := g.varints()
				if err != nil {
					return nil, err
				}
				switch g.num {
				case sampleLocs:
					s.locs = append(s.locs, vs...)
				case sampleValues:
					s.values = append(s.values, vs...)
				}
			}
			samples = append(samples, s)
		}
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, fmt.Errorf("%w: sample without values", errBadProfile)
		}
		ps := profileSample{count: int64(s.values[0])}
		for _, l := range s.locs {
			for _, fn := range locFunc[l] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("%w: string index %d out of range", errBadProfile, idx)
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// gcRoots are the runtime functions under which all garbage-collector
// work runs: background marking and sweeping, and mark assists charged
// to allocating goroutines.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// packageOf returns the short package name of a fully qualified Go
// function name: "lupine/internal/fleet.(*Fleet).schedule" -> "fleet",
// "container/heap.up" -> "heap", "runtime.memmove" -> "runtime".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations name other packages
	}
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// cpuShares splits samples into flat shares by the package of the leaf
// function, except that every sample under a GC root counts as "gc".
func cpuShares(samples []profileSample) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		if len(s.stack) == 0 {
			continue
		}
		pkg := packageOf(s.stack[0])
		for _, fn := range s.stack {
			if gcRoots[fn] {
				pkg = "gc"
				break
			}
		}
		counts[pkg] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(counts))
	for pkg, c := range counts {
		out[pkg] = float64(c) / float64(total)
	}
	return out
}
