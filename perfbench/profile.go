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

// shareBuckets are the cpu.share.<bucket> metrics, in report order:
// cloversim's layers by package, then the Go runtime, the rest of the
// standard library, and everything else (other cloversim packages
// and the benchmark itself).
var shareBuckets = []string{
	"memsim", "core", "trace", "cloverleaf", "bench", "workload",
	"store", "sweep", "sweepd", "dispatch",
	"runtime", "stdlib", "other",
}

// bucketOf maps a Go function symbol to its share bucket by package.
func bucketOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "cloversim/internal/"):
		name := strings.TrimPrefix(pkg, "cloversim/internal/")
		for _, b := range shareBuckets[:10] {
			if name == b {
				return b
			}
		}
		return "other"
	case pkg != "" && pkg != "main" && !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		// A first path element without a dot is the standard library,
		// except the module paths of this repository.
		if pkg == "cloversim" || strings.HasPrefix(pkg, "cloversim/") {
			return "other"
		}
		return "stdlib"
	}
	return "other"
}

// packageOf returns the import path of a Go function symbol such as
// "cloversim/internal/memsim.(*Hierarchy).accessRange" or
// "slices.SortFunc[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// opLabel is the pprof label key that marks the goroutines working
// for a traced operation: the operation's own goroutine, the ones it
// starts, and the daemon handlers serving it.
const opLabel = "perfbench.op"

// addLeafCounts reduces a runtime/pprof CPU profile to sample counts
// by the bucket of each sample's leaf frame, adding them to counts.
// Only samples labeled with opLabel count.
func addLeafCounts(counts map[string]int64, profile []byte) error {
	p, err := parseProfile(profile)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.locations) == 0 || len(s.values) == 0 || !p.hasLabel(s, opLabel) {
			continue
		}
		counts[bucketOf(p.leafFunction(s.locations[0]))] += s.values[0]
	}
	return nil
}

// sharesOf turns bucket counts into shares of all samples.
func sharesOf(counts map[string]int64) (shares map[string]float64, samples int64) {
	for _, n := range counts {
		samples += n
	}
	shares = make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		shares[b] = 0
		if samples > 0 {
			shares[b] = float64(counts[b]) / float64(samples)
		}
	}
	return shares, samples
}

// profile is the part of the pprof protobuf format the reduction
// needs: samples with their location stacks (leaf first), locations
// with their line entries (innermost inlined function first), and
// function names from the string table.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location ID -> function IDs
	functions map[uint64]int64    // function ID -> name string index
	strings   []string
}

type sample struct {
	locations []uint64
	values    []int64
	labelKeys []int64 // string indexes
}

func (p *profile) hasLabel(s sample, key string) bool {
	for _, k := range s.labelKeys {
		if k >= 0 && k < int64(len(p.strings)) && p.strings[k] == key {
			return true
		}
	}
	return false
}

func (p *profile) leafFunction(loc uint64) string {
	fns := p.locations[loc]
	if len(fns) == 0 {
		return ""
	}
	i := p.functions[fns[0]]
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes a gzip-compressed (or plain) profile.proto
// message. Field numbers follow github.com/google/pprof's
// proto/profile.proto: Profile.sample=2, location=4, function=5,
// string_table=6; Sample.location_id=1, value=2, label=3; Label.key=1;
// Location.id=1, line=4; Line.function_id=1; Function.id=1, name=2.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locations, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				case 3:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							s.labelKeys = append(s.labelKeys, int64(v))
						}
						return nil
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

var errTruncated = errors.New("truncated protobuf message")

// eachField calls fn for each field of a protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case wireI64:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case wireI32:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		case wireBytes:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != wireBytes {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
