package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reads the CPU profile that runtime/pprof writes (gzipped
// protobuf, see github.com/google/pprof/proto/profile.proto) far
// enough to attribute each sample's leaf frame to a package. The
// standard library has no public decoder for the format.

// layerPackages maps the repository's packages to the benchmark's
// layer names.
var layerPackages = map[string]string{
	"relaxreplay/internal/workload":     "workload",
	"relaxreplay/internal/machine":      "machine",
	"relaxreplay/internal/cpu":          "cpu",
	"relaxreplay/internal/coherence":    "coherence",
	"relaxreplay/internal/interconnect": "interconnect",
	"relaxreplay/internal/core":         "core",
	"relaxreplay/internal/replaylog":    "replaylog",
	"relaxreplay/internal/rrnet":        "rrnet",
	"relaxreplay/internal/replay":       "replay",
	"runtime":                           "runtime",
}

// gcFrames are the runtime functions whose presence anywhere on a
// stack marks the sample as garbage-collector or allocator work: the
// background mark workers, allocation, assists and write barriers.
var gcFrames = []string{
	"runtime.gcBgMarkWorker",
	"runtime.mallocgc",
	"runtime.gcAssistAlloc",
	"runtime.gcWriteBarrier",
	"gcWriteBarrier", // the assembly barrier stubs carry no package prefix
	"runtime.wbBufFlush",
	"runtime.wbMove",
	"runtime.bulkBarrierPreWrite",
}

// profileTable is the package attribution of one CPU profile.
type profileTable struct {
	Samples      int                `json:"samples"`
	ByLayer      map[string]int     `json:"by_layer"`
	Shares       map[string]float64 `json:"shares"`
	GCSamples    int                `json:"gc_samples"`
	Unattributed int                `json:"unattributed"`
	// UnattributedTop lists the leaf packages outside every layer,
	// most samples first.
	UnattributedTop []pkgCount `json:"unattributed_top"`
	// UnattributedCaller counts the unattributed samples by the
	// nearest layer frame above the leaf ("none" when no layer frame,
	// the runtime aside, is on the stack).
	UnattributedCaller map[string]int `json:"unattributed_caller"`
}

type pkgCount struct {
	Package string `json:"package"`
	Samples int    `json:"samples"`
}

func (t profileTable) share(layer string) float64 {
	return ratio(float64(t.ByLayer[layer]), float64(t.Samples))
}

// attribute decodes a gzipped pprof CPU profile and counts samples by
// the layer of their leaf frame.
func attribute(gz []byte) (profileTable, error) {
	p, err := readProfile(gz)
	if err != nil {
		return profileTable{}, err
	}

	t := profileTable{ByLayer: map[string]int{}, Shares: map[string]float64{}, UnattributedCaller: map[string]int{}}
	other := map[string]int{}
	for _, s := range p.samples {
		n := int(s.count)
		frames := p.frames(s.locs)
		if len(frames) == 0 {
			continue
		}
		t.Samples += n
		for _, f := range frames {
			if hasAnyPrefix(f, gcFrames) {
				t.GCSamples += n
				break
			}
		}
		pkg := packageOf(frames[0])
		if layer, ok := layerPackages[pkg]; ok {
			t.ByLayer[layer] += n
		} else {
			t.Unattributed += n
			other[pkg] += n
			t.UnattributedCaller[callerLayer(frames[1:])] += n
		}
	}
	for layer := range t.ByLayer {
		t.Shares[layer] = t.share(layer)
	}
	for pkg, n := range other {
		t.UnattributedTop = append(t.UnattributedTop, pkgCount{pkg, n})
	}
	sort.Slice(t.UnattributedTop, func(i, j int) bool {
		a, b := t.UnattributedTop[i], t.UnattributedTop[j]
		return a.Samples > b.Samples || a.Samples == b.Samples && a.Package < b.Package
	})
	return t, nil
}

func callerLayer(frames []string) string {
	for _, f := range frames {
		if layer, ok := layerPackages[packageOf(f)]; ok && layer != "runtime" {
			return layer
		}
	}
	return "none"
}

func readProfile(gz []byte) (*pprofProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return decodeProfile(raw)
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// packageOf returns the import path of a Go symbol name such as
// "relaxreplay/internal/cpu.(*Core).Tick" or "runtime.mallocgc". A name
// without a package, like the write-barrier stub "gcWriteBarrier2", is
// runtime assembly.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	if slash < 0 {
		return "runtime"
	}
	return fn
}

type pprofSample struct {
	locs  []uint64
	count int64
}

type pprofProfile struct {
	samples   []pprofSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, leaf first
	funcNames map[uint64]int64    // function id -> string index
	strings   []string
}

// frames returns the function names of a stack, leaf first.
func (p *pprofProfile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locFuncs[l] {
			if i := p.funcNames[f]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

var errProto = errors.New("profile: malformed protobuf")

func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s pprofSample
			first := true
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, d)
				case 2:
					if first { // values[0] is the sample count
						vals := appendVarints(nil, v, d)
						if len(vals) > 0 {
							s.count = int64(vals[0])
						}
						first = false
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(data, func(f int, v uint64, _ []byte) error {
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
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field that arrived either
// unpacked (one varint v, data nil) or packed (data holds varints).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks one message's fields. Varint fields arrive as v with
// nil data, length-delimited ones as data; fixed-width fields are
// skipped since the profile fields read here use neither.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
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
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			if data == nil {
				data = []byte{}
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}
