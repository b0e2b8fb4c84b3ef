package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// span is one interval of the traced pass. Parent is the id of the span that
// caused it (-1 for the root); Ops is the work it covered; Counters are the
// layer counters read at its end boundary.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"` // since process start
	EndNs    int64              `json:"end_ns"`
	Ops      int                `json:"ops,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory; they are written once, when the pass ends.
// Spans are opened and closed by the benchmark's own goroutine only. A nil
// tracer records nothing, so untraced code can share the traced code's path.
type tracer struct {
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, StartNs: time.Since(processStart).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id, ops int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = time.Since(processStart).Nanoseconds()
	t.spans[id].Ops = ops
}

func (t *tracer) write(path string, header any) error {
	data, err := json.MarshalIndent(struct {
		Run   any    `json:"run"`
		Spans []span `json:"spans"`
	}{header, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// shareLayers are the layers a CPU sample can be attributed to, by package
// under repro/internal/. Packages not listed (env, fec, adapt, ...) are
// helpers of a listed layer: the walk continues to the frame that called them.
var shareLayers = map[string]bool{
	"simnet": true, "core": true, "aggregation": true, "membership": true, "wire": true,
	"netem": true, "ratelimit": true, "udpnet": true, "stream": true, "scenario": true,
}

const internalPrefix = "repro/internal/"

// cpuShares attributes every sample of a CPU profile to the layer of its
// innermost frame that belongs to a listed layer; samples that reach the
// benchmark's own code or the stack's end first are the Go runtime's
// background work and the harness. The gc, malloc and syscall numbers are
// overlays: samples counted again by what they were doing, whatever layer
// they were doing it for.
func cpuShares(profile []byte) (map[string]float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	weights := map[string]float64{}
	var total, gc, malloc, udpSyscall float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		total += v
		layer := ""
		inGC, inMalloc, inSyscall := false, false, false
		for _, fn := range p.stack(s) { // leaf first
			switch {
			case strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge"):
				inGC = true
			case fn == "runtime.mallocgc":
				inMalloc = true
			case strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall."):
				inSyscall = true
			}
			if layer != "" {
				continue
			}
			if strings.HasPrefix(fn, "main.") {
				layer = "bg"
			} else if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
				if name := rest[:strings.IndexAny(rest+".", "./")]; shareLayers[name] {
					layer = name
				}
			}
		}
		if layer == "" {
			layer = "bg"
		}
		weights[layer] += v
		if inGC {
			gc += v
		}
		if inMalloc && !inGC {
			malloc += v
		}
		if inSyscall && layer == "udpnet" {
			udpSyscall += v
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}
	out := map[string]float64{
		"runtime.bg_share_pct":     100 * weights["bg"] / total,
		"runtime.gc_share_pct":     100 * gc / total,
		"runtime.malloc_share_pct": 100 * malloc / total,
		"udpnet.syscall_share_pct": 100 * udpSyscall / total,
	}
	for layer := range shareLayers {
		out[layer+".cpu_share_pct"] = 100 * weights[layer] / total
	}
	return out, nil
}

// What follows reads the gzip-compressed protobuf that runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto) — only the fields needed to
// turn a sample into function names; the standard library has the writer but
// not a reader.

type profSample struct {
	locations []uint64
	values    []int64
}

type cpuProfile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

// stack returns the sample's function names, leaf first.
func (p *cpuProfile) stack(s profSample) []string {
	var out []string
	for _, loc := range s.locations {
		for _, fn := range p.locFuncs[loc] {
			if idx := p.funcNames[fn]; idx >= 0 && int(idx) < len(p.strings) {
				out = append(out, p.strings[idx])
			}
		}
	}
	return out
}

func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &cpuProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err = eachField(raw, func(num int, val uint64, body []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(body, func(num int, val uint64, body []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, val, body)
				case 2:
					for _, v := range appendVarints(nil, val, body) {
						s.values = append(s.values, int64(v))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(body, func(num int, val uint64, body []byte) error {
				switch num {
				case 1:
					id = val
				case 4: // line
					return eachField(body, func(num int, val uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, val)
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
			var name int64
			err := eachField(body, func(num int, val uint64, _ []byte) error {
				switch num {
				case 1:
					id = val
				case 2:
					name = int64(val)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	return p, err
}

// eachField walks one protobuf message, calling fn with the field number and
// either its varint value or its length-delimited body.
func eachField(msg []byte, fn func(num int, val uint64, body []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("cpu profile: bad field key")
		}
		msg = msg[n:]
		num, wireType := int(key>>3), key&7
		var val uint64
		var body []byte
		switch wireType {
		case 0:
			if val, n = uvarint(msg); n <= 0 {
				return fmt.Errorf("cpu profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("cpu profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			size, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < size {
				return fmt.Errorf("cpu profile: bad length")
			}
			body, msg = msg[n:n+int(size)], msg[n+int(size):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("cpu profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wireType)
		}
		if err := fn(num, val, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: the packed body
// when there is one, the single value otherwise.
func appendVarints(dst []uint64, val uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, val)
	}
	for len(packed) > 0 {
		v, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		packed = packed[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) { return binary.Uvarint(b) }
