package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the flashfc/internal packages whose CPU share the traced run
// reports, in report order.
var layers = []string{"sim", "interconnect", "magic", "coherence", "proc", "core", "routing", "topology", "machine", "workload"}

// Runtime buckets, and the remainder that makes the shares add up.
const (
	bucketGC    = "runtime_gc"
	bucketAlloc = "runtime_alloc"
	bucketMaps  = "runtime_maps"
	bucketOther = "other"
)

// buckets lists every attribution bucket in report order.
func buckets() []string {
	return append(append([]string(nil), layers...), bucketGC, bucketAlloc, bucketMaps, bucketOther)
}

// ownerPackage returns the import path of the package that owns a Go
// symbol such as "flashfc/internal/sim.(*Engine).RunUntil" or
// "flashfc.RunCampaign[go.shape.*uint8].func1". Compiler-generated symbols
// ("type:.eq.…") belong to no package and yield "".
func ownerPackage(sym string) string {
	if strings.HasPrefix(sym, "type:") {
		return ""
	}
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may themselves contain paths
	}
	slash := strings.LastIndexByte(sym, '/') + 1
	dot := strings.IndexByte(sym[slash:], '.')
	if dot < 0 {
		return ""
	}
	return sym[:slash+dot]
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg"
}

// layerOf maps a package to its reported layer: a tracked flashfc/internal
// package by its short name, anything else to the remainder.
func layerOf(pkg string) string {
	rest, ok := strings.CutPrefix(pkg, "flashfc/internal/")
	if !ok {
		return bucketOther
	}
	rest, _, _ = strings.Cut(rest, "/")
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return bucketOther
}

// runtimeBucket names the runtime activity a frame marks, or "".
func runtimeBucket(fn string) string {
	name := strings.TrimPrefix(fn, "runtime.")
	switch {
	case strings.HasPrefix(name, "gc"), strings.Contains(name, "sweep"),
		strings.Contains(name, "scavenge"), strings.HasPrefix(name, "markroot"),
		strings.HasPrefix(name, "scanobject"), strings.HasPrefix(name, "scanblock"),
		strings.HasPrefix(name, "scanstack"), strings.HasPrefix(name, "greyobject"),
		strings.HasPrefix(name, "wbBuf"), strings.HasPrefix(name, "bulkBarrier"):
		return bucketGC
	case strings.HasPrefix(name, "mallocgc"), strings.HasPrefix(name, "newobject"),
		strings.HasPrefix(name, "newarray"), strings.HasPrefix(name, "makeslice"),
		strings.HasPrefix(name, "growslice"), strings.HasPrefix(name, "makemap"),
		strings.HasPrefix(name, "makechan"):
		return bucketAlloc
	case strings.HasPrefix(name, "map"), strings.HasPrefix(fn, "internal/runtime/maps."):
		return bucketMaps
	}
	return ""
}

// classify attributes a CPU sample's self time. frames run from the leaf
// outwards. A leaf in a program package is charged to that package; a leaf
// in the runtime is charged to the first GC, allocation or map frame met
// walking out through runtime frames, else to the remainder.
func classify(frames []string) string {
	if len(frames) == 0 {
		return bucketOther
	}
	if pkg := ownerPackage(frames[0]); !isRuntime(pkg) {
		return layerOf(pkg)
	}
	for _, fn := range frames {
		if !isRuntime(ownerPackage(fn)) {
			break
		}
		if b := runtimeBucket(fn); b != "" {
			return b
		}
	}
	return bucketOther
}

// cpuSample is one profile sample reduced to what attribution needs.
type cpuSample struct {
	frames []string // leaf first, inlined frames expanded
	count  int64
	phase  string // the "phase" pprof label, "" when unlabelled
}

// parseProfile decodes a gzipped pprof protobuf (as runtime/pprof writes
// it) into samples. Only the fields attribution uses are read.
func parseProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		count  int64
		labels [][2]int64 // (key, str) string-table indices
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Profile.sample
			var s rawSample
			var values []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppend(s.locs, v, b)
				case 2:
					values = pbAppend(values, v, b)
				case 3:
					var key, str int64
					err := pbFields(b, func(f int, v uint64, _ []byte) error {
						switch f {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, [2]int64{key, str})
					return err
				}
				return nil
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.count}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				cs.frames = append(cs.frames, str(funcs[fn]))
			}
		}
		for _, kv := range s.labels {
			if str(kv[0]) == "phase" {
				cs.phase = str(kv[1])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields walks the fields of one protobuf message, calling fn with each
// field number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; pprof uses none that attribution needs.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
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
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbVarint decodes one varint, returning its value and length (0 when b is
// truncated).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbAppend appends a repeated varint field's value(s): one unpacked value
// (data == nil) or a packed run.
func pbAppend(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// attribution is CPU samples split by bucket and by phase label.
type attribution struct {
	total    int64
	byBucket map[string]int64
	byPhase  map[string]map[string]int64 // phase label -> bucket -> samples
}

func attribute(samples []cpuSample) attribution {
	a := attribution{byBucket: map[string]int64{}, byPhase: map[string]map[string]int64{}}
	for _, s := range samples {
		b := classify(s.frames)
		a.total += s.count
		a.byBucket[b] += s.count
		if a.byPhase[s.phase] == nil {
			a.byPhase[s.phase] = map[string]int64{}
		}
		a.byPhase[s.phase][b] += s.count
	}
	return a
}

// share is a bucket's percentage of all samples.
func (a attribution) share(bucket string) float64 {
	return 100 * ratio(float64(a.byBucket[bucket]), float64(a.total))
}
