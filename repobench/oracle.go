package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"reflect"
)

// The output oracle. Every job result is reduced to a digest of all its
// deterministic fields. A run fails a job when its digest differs from
// the job's first execution in the same process (determinism), from its
// serial twin (cross-executor), from its uninterrupted run (resume), or,
// for the default seed, from the digest pinned in testdata/digests.json.
// Regenerating that file (-write-digests) is the explicit re-baseline.

// defaultSeed is the seed the pinned digests were recorded for.
const defaultSeed = 1

// pinnedFile holds the pinned digests, relative to the benchmark's own
// directory.
const pinnedFile = "repobench/testdata/digests.json"

// skipFields are result fields that are not part of a run's output:
// the optional observability capture, and the churn counters the
// executors legitimately disagree on (the serial engine recycles
// departed flows, the sharded one keeps them resident).
var skipFields = map[string]bool{"Obs": true, "Constructions": true, "Reclaimed": true}

// digest returns a short hex digest of a result value.
func digest(v any) string {
	h := sha256.New()
	hashValue(h, reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func hashValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if skipFields[t.Field(i).Name] {
				continue
			}
			hashValue(h, v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		hashValue(h, v.Elem())
	default:
		panic(fmt.Sprintf("digest: unsupported kind %s", v.Kind()))
	}
}

// pins maps a pin key to job name -> digest.
type pins map[string]map[string]string

func loadPins(path string) (pins, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading pinned digests: %w", err)
	}
	var p pins
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("parsing pinned digests %s: %w", path, err)
	}
	return p, nil
}

// writePins stores p as indented JSON (encoding/json sorts map keys).
func writePins(path string, p pins) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// oracle checks one workload's job outputs.
type oracle struct {
	// first holds each job's digest from its first execution.
	first map[string]string
	// pinned is the workload's pinned table (nil off the default seed).
	pinned map[string]string
	// failures records why jobs failed, in order.
	failures []string
}

// checkJob verifies one job's result and reports whether it passed.
func (o *oracle) checkJob(w *workload, name string, res any) bool {
	if err := w.check(res); err != nil {
		return o.fail(name, err.Error())
	}
	if out, ok := res.(chainOut); ok {
		if f, r := digest(out.full), digest(out.resumed); f != r {
			return o.fail(name, fmt.Sprintf("resumed run digests %s, uninterrupted run %s", r, f))
		}
		res = out.full
	}
	d := digest(res)
	if prev, ok := o.first[name]; !ok {
		o.first[name] = d
		if o.pinned != nil {
			if pin, ok := o.pinned[name]; !ok {
				return o.fail(name, "no pinned digest")
			} else if pin != d {
				return o.fail(name, fmt.Sprintf("digest %s, pinned %s", d, pin))
			}
		}
	} else if prev != d {
		return o.fail(name, fmt.Sprintf("digest %s, first execution %s", d, prev))
	}
	return true
}

// checkTwin compares a job's serial twin with the job's own first digest.
func (o *oracle) checkTwin(name string, twin any) bool {
	if d := digest(twin); d != o.first[name] {
		return o.fail(name, fmt.Sprintf("serial twin digests %s, sharded run %s", d, o.first[name]))
	}
	return true
}

func (o *oracle) fail(name, why string) bool {
	o.failures = append(o.failures, name+": "+why)
	return false
}
