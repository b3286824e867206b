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

// CPU attribution of a runtime/pprof profile to the repository's layers.
//
// Each sample is charged to the innermost frame that belongs to a
// package under repro/internal/ (runtime and math frames are thereby
// charged to their repo caller). Samples with no repo frame go to
// "bench" when the benchmark's own code is on the stack, to "gc" when a
// background collector frame is, and to "runtime" otherwise. Three
// overlapping shares are kept beside the layers: "memmove" and "math"
// by leaf frame, "sched" for samples anywhere inside the Go scheduler's
// park/wake path or its locks.

const repoPrefix = "repro/internal/"

// layerOf returns the repository layer (package name) of a fully
// qualified function name, or "" when the function is not repo code.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexByte(rest, '.'); i > 0 {
		return rest[:i]
	}
	return ""
}

var schedFuncs = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.wakep": true, "runtime.startm": true, "runtime.stopm": true,
	"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.futexsleep": true,
	"runtime.futexwakeup": true, "runtime.lock2": true, "runtime.unlock2": true,
	"runtime.semacquire1": true, "runtime.semrelease1": true, "runtime.osyield": true,
	"runtime.usleep": true, "runtime.runqgrab": true, "runtime.stealWork": true,
	"runtime.Gosched": true, "runtime.goschedImpl": true, "runtime.gosched_m": true,
	"runtime.handoffp": true, "runtime.resetspinning": true, "runtime.chanrecv": true,
	"runtime.chansend": true, "runtime.selectgo": true, "sync.(*Mutex).lockSlow": true,
}

var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.gcDrain"}

// attribution is a profile's sample count per class.
type attribution struct {
	total   int64
	byClass map[string]int64
}

// share returns the fraction of samples charged to a class.
func (a attribution) share(class string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.byClass[class]) / float64(a.total)
}

// classify returns the layer class and the overlapping leaf classes of
// one stack, innermost frame first.
func classify(frames []string) (layer string, extra []string) {
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			layer = l
			break
		}
	}
	if layer == "" {
		layer = "runtime"
		for _, f := range frames {
			// The benchmark's functions are main.* in its binary and
			// repro/repobench.* in its test binary.
			if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "repro/repobench.") {
				layer = "bench"
				break
			}
		}
		if layer == "runtime" {
		gc:
			for _, f := range frames {
				for _, r := range gcRoots {
					if f == r {
						layer = "gc"
						break gc
					}
				}
			}
		}
	}
	if len(frames) > 0 {
		switch leaf := frames[0]; {
		case leaf == "runtime.memmove":
			extra = append(extra, "memmove")
		case strings.HasPrefix(leaf, "math."):
			extra = append(extra, "math")
		}
	}
	for _, f := range frames {
		if schedFuncs[f] {
			extra = append(extra, "sched")
			break
		}
	}
	return layer, extra
}

// attribute decodes a gzipped pprof CPU profile and charges its samples.
func attribute(gz []byte) (attribution, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return attribution{}, err
	}
	a := attribution{byClass: map[string]int64{}}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if i := p.funcName[fn]; i >= 0 && int(i) < len(p.strs) {
					frames = append(frames, p.strs[i])
				}
			}
		}
		layer, extra := classify(frames)
		a.total += s.count
		a.byClass[layer] += s.count
		for _, x := range extra {
			a.byClass[x] += s.count
		}
	}
	return a, nil
}

// profile holds the parts of a profile.proto message attribution needs.
type profile struct {
	strs     []string
	funcName map[uint64]int64    // function id -> string-table index
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	samples  []profSample
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

// decodeProfile parses the gzipped protocol-buffer profile format
// written by runtime/pprof (github.com/google/pprof/proto/profile.proto),
// keeping samples, locations, functions and the string table.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	err = protoFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			var values []uint64
			if err := protoFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, d)
				case 2:
					return appendPacked(&values, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := protoFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return protoFields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id uint64
			name := int64(-1)
			if err := protoFields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// protoFields walks the fields of one protocol-buffer message, passing
// varint values as v and length-delimited payloads as data. Fixed-width
// fields are skipped.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one value) or packed (a length-delimited run of varints).
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
