package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// traced runs fn — a workload's traced phase — under the CPU profiler and
// the runtime counters. It writes the profile to o.out and adds the
// runtime.* figures and the cpu.<package> self-sample shares to m.
func traced(o opts, workload string, m metricSet, fn func() error) error {
	path := fmt.Sprintf("%s/%s-seed%d.cpu.pprof", o.out, workload, o.seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	before := readRuntime()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	after := readRuntime()
	if err := f.Close(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	runtimeMetrics(m, before, after)
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	shares, err := cpuShares(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, b := range cpuBuckets {
		m.set("cpu."+b, shares[b], "fraction")
	}
	return nil
}

// cpuShares decodes a gzipped pprof CPU profile and returns, per bucket,
// the share of sampled CPU time charged to it. A sample is charged to the
// innermost frame of its stack that is this repository's code, so map,
// allocation and syscall work counts for the layer that asked for it;
// a sample with no such frame (GC workers, the scheduler, the network
// poller) goes to the bucket of its innermost frame.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byBucket := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds
		total += v
		byBucket[p.bucketOf(s.locs)] += v
	}
	out := map[string]float64{}
	for b, v := range byBucket {
		out[b] = ratio(float64(v), float64(total))
	}
	return out, nil
}

// bucketOf charges a stack (innermost location first) to a bucket.
func (p *profile) bucketOf(locs []uint64) string {
	leaf := ""
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			name := p.strings[p.funcName[fn]]
			if leaf == "" {
				leaf = name
			}
			if strings.HasPrefix(name, repoPrefix) {
				return packageBucket(name)
			}
		}
	}
	return packageBucket(leaf)
}

// repoPrefix starts the function names of this repository's packages.
const repoPrefix = "p2psum/internal/"

// packageBucket maps a function's full name to its cpuBuckets entry.
func packageBucket(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if rest, ok := strings.CutPrefix(pkg, repoPrefix); ok {
		for _, b := range cpuBuckets {
			if rest == b {
				return b
			}
		}
		return "other"
	}
	switch {
	case pkg == "net" || pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/poll" || pkg == "os" || pkg == "bufio":
		return "net"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	}
	return "other"
}

// profile is the part of a pprof profile.proto the bucketing needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost (inlined) first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed profile")

// parseProfile decodes the protobuf wire format of profile.proto: field 2
// samples, 4 locations, 5 functions, 6 the string table.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, wt int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					return varints(wt, v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wt, v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line: innermost inlined function first
					return fields(data, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
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
			err := fields(data, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}

// fields walks a protobuf message, calling fn with each field's number,
// wire type, varint value (wire type 0) or bytes (wire type 2).
func fields(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated integer field, packed (wire type 2) or not.
func varints(wt int, v uint64, data []byte, add func(uint64)) error {
	if wt == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		add(x)
		data = data[n:]
	}
	return nil
}
