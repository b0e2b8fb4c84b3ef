package netem

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

// FuzzNetemConfig decodes an arbitrary Config from bytes and checks that
// Validate never panics; that every config it accepts builds over dense pools
// of 0 to 64 ids, with and without a region resolver, without panicking and
// failing only for want of a resolver; and that two builds from the same seed
// are the same engine — equal capability traces and equal Judge verdicts over
// a fixed datagram script. The seed corpus is the stock profiles.
func FuzzNetemConfig(f *testing.F) {
	for _, name := range ProfileNames() {
		p, err := Profile(name)
		if err != nil {
			f.Fatal(err)
		}
		w := &cfgWriter{}
		walkConfig(w, &p)
		var back Config
		walkConfig(&cfgReader{b: w.b}, &back)
		if back.Name = p.Name; !reflect.DeepEqual(back, p) {
			f.Fatalf("profile %s does not survive the codec: %+v, decoded %+v", name, p, back)
		}
		f.Add(w.b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg Config
		walkConfig(&cfgReader{b: data}, &cfg)
		if cfg.Validate() != nil {
			return
		}
		seed := int64(len(data))
		for _, n := range []int{0, 1, 2, 64, len(data) % 65} {
			for _, regionOf := range []func(wire.NodeID) int{nil, regionMod(3)} {
				a, err := cfg.Build(n, seed, 0.01, regionOf)
				if err != nil {
					if regionOf == nil && cfg.usesRegions() {
						continue
					}
					t.Fatalf("valid config failed to build over %d ids: %v (%+v)", n, err, cfg)
				}
				b, err := cfg.Build(n, seed, 0.01, regionOf)
				if err != nil {
					t.Fatalf("rebuild failed: %v", err)
				}
				if !reflect.DeepEqual(a.CapTraces(), b.CapTraces()) {
					t.Fatalf("capability traces differ across builds: %+v vs %+v", a.CapTraces(), b.CapTraces())
				}
				ids := max(n, 1)
				rngA, rngB := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
				for i := 0; i < 256; i++ {
					from, to := wire.NodeID(i%ids), wire.NodeID((i*7+1)%ids)
					at := time.Duration(i) * 250 * time.Millisecond
					va := a.Judge(from, to, 100+i, at, rngA)
					if vb := b.Judge(from, to, 100+i, at, rngB); va != vb {
						t.Fatalf("datagram %d: verdicts differ across builds: %+v vs %+v", i, va, vb)
					}
				}
			}
		}
	})
}

// TestValidateRejectsNaN pins the NaN holes FuzzNetemConfig found: a NaN
// fails every ordered comparison, so range checks written as "reject if
// below or above" let it through, and a NaN split fraction then panicked
// Build when converted to a node count. An infinite capability factor is
// refused with them.
func TestValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	steps := []CapStep{{At: time.Second, Factor: 0.5}}
	for i, cfg := range []Config{
		{Bernoulli: nan},
		{GE: &GEParams{PGoodBad: nan}},
		{Partitions: []PartitionSpec{{From: 0, Until: time.Second, SplitFractions: []float64{nan}}}},
		{Asym: &AsymSpec{Fraction: nan, RxLoss: 0.1}},
		{Asym: &AsymSpec{Fraction: 0.5, RxLoss: nan}},
		{Asym: &AsymSpec{Fraction: 0.5, TxLoss: nan}},
		{CapTraces: []CapTraceSpec{{Fraction: nan, Steps: steps}}},
		{CapTraces: []CapTraceSpec{{Fraction: 0.5, Steps: []CapStep{{At: time.Second, Factor: nan}}}}},
		{CapTraces: []CapTraceSpec{{Fraction: 0.5, Steps: []CapStep{{At: time.Second, Factor: math.Inf(1)}}}}},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d with a NaN or an infinity accepted: %+v", i, cfg)
		}
	}
	if _, err := (&Config{}).Build(4, 1, nan, nil); err == nil {
		t.Error("a NaN base loss accepted")
	}
}

// codec walks a Config field by field, either decoding fuzz bytes into it
// (cfgReader) or encoding it (cfgWriter), so the seed corpus and the decoder
// cannot drift apart. count may shrink a slice length to at most max.
type codec interface {
	count(n *int, max int)
	flag(v *bool)
	f64(v *float64)
	dur(v *time.Duration)
	id(v *wire.NodeID)
	region(v *int)
}

// walkConfig visits every field of cfg but Name in a fixed order.
func walkConfig(c codec, cfg *Config) {
	hasGE, hasAsym := cfg.GE != nil, cfg.Asym != nil
	c.flag(&hasGE)
	c.flag(&hasAsym)
	c.f64(&cfg.Bernoulli)
	if hasGE {
		if cfg.GE == nil {
			cfg.GE = &GEParams{}
		}
		for _, v := range []*float64{&cfg.GE.PGoodBad, &cfg.GE.PBadGood, &cfg.GE.LossGood, &cfg.GE.LossBad} {
			c.f64(v)
		}
	}
	cfg.Partitions = walkSlice(c, cfg.Partitions, 3, func(p *PartitionSpec) {
		c.dur(&p.From)
		c.dur(&p.Until)
		p.Groups = walkSlice(c, p.Groups, 3, func(g *[]wire.NodeID) { *g = walkIDs(c, *g) })
		p.SplitFractions = walkSlice(c, p.SplitFractions, 3, c.f64)
		p.Regions = walkSlice(c, p.Regions, 3, func(g *[]int) { *g = walkSlice(c, *g, 3, c.region) })
	})
	cfg.Spikes = walkSlice(c, cfg.Spikes, 3, func(s *Spike) { walkSpike(c, s) })
	cfg.RegionSpikes = walkSlice(c, cfg.RegionSpikes, 2, func(rs *RegionSpike) {
		walkSpike(c, &rs.Spike)
		rs.Regions = walkSlice(c, rs.Regions, 3, c.region)
	})
	if hasAsym {
		if cfg.Asym == nil {
			cfg.Asym = &AsymSpec{}
		}
		a := cfg.Asym
		a.Nodes = walkIDs(c, a.Nodes)
		c.f64(&a.Fraction)
		c.f64(&a.RxLoss)
		c.f64(&a.TxLoss)
		c.dur(&a.RxDelay)
		c.dur(&a.TxDelay)
	}
	cfg.CapTraces = walkSlice(c, cfg.CapTraces, 3, func(tr *CapTraceSpec) {
		tr.Nodes = walkIDs(c, tr.Nodes)
		c.f64(&tr.Fraction)
		c.flag(&tr.Silent)
		tr.Steps = walkSlice(c, tr.Steps, 4, func(st *CapStep) {
			c.dur(&st.At)
			c.f64(&st.Factor)
		})
	})
}

func walkSpike(c codec, s *Spike) {
	for _, v := range []*time.Duration{&s.At, &s.Duration, &s.Extra, &s.Ramp} {
		c.dur(v)
	}
}

func walkIDs(c codec, ids []wire.NodeID) []wire.NodeID { return walkSlice(c, ids, 4, c.id) }

// walkSlice codes a slice's length, then each element.
func walkSlice[T any](c codec, s []T, max int, elem func(*T)) []T {
	n := len(s)
	c.count(&n, max)
	if n != len(s) {
		s = make([]T, n)
	}
	for i := range s {
		elem(&s[i])
	}
	return s
}

// cfgReader decodes fuzz bytes, reading zeros once they run out, so every
// byte string is some Config. Durations are raw 8-byte words. A float is a
// tag byte: 0 for a raw 8-byte word, 1-3 for NaN, +Inf and -Inf, anything
// else for one of the values from -0.1 to 1.155 in steps of 0.005, so both
// special values and the edges of [0, 1] are one byte away.
type cfgReader struct{ b []byte }

func (r *cfgReader) next(n int) []byte {
	out := make([]byte, n)
	r.b = r.b[copy(out, r.b):]
	return out
}

func (r *cfgReader) count(n *int, max int) { *n = int(r.next(1)[0]) % (max + 1) }
func (r *cfgReader) flag(v *bool)          { *v = r.next(1)[0]&1 == 1 }
func (r *cfgReader) f64(v *float64) {
	switch t := r.next(1)[0]; t {
	case 0:
		*v = math.Float64frombits(binary.BigEndian.Uint64(r.next(8)))
	case 1:
		*v = math.NaN()
	case 2:
		*v = math.Inf(1)
	case 3:
		*v = math.Inf(-1)
	default:
		*v = float64(int(t)-24) / 200
	}
}

func (r *cfgReader) dur(v *time.Duration) { *v = time.Duration(binary.BigEndian.Uint64(r.next(8))) }
func (r *cfgReader) id(v *wire.NodeID)    { *v = wire.NodeID(binary.BigEndian.Uint32(r.next(4))) }
func (r *cfgReader) region(v *int)        { *v = int(int16(binary.BigEndian.Uint16(r.next(2)))) }

// cfgWriter encodes a Config in cfgReader's format.
type cfgWriter struct{ b []byte }

func (w *cfgWriter) count(n *int, max int) {
	if *n > max {
		panic("netem fuzz: seed config exceeds the codec's list bound")
	}
	w.b = append(w.b, byte(*n))
}

func (w *cfgWriter) flag(v *bool) {
	if *v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

func (w *cfgWriter) f64(v *float64) {
	w.b = binary.BigEndian.AppendUint64(append(w.b, 0), math.Float64bits(*v))
}
func (w *cfgWriter) dur(v *time.Duration) { w.b = binary.BigEndian.AppendUint64(w.b, uint64(*v)) }
func (w *cfgWriter) id(v *wire.NodeID)    { w.b = binary.BigEndian.AppendUint32(w.b, uint32(*v)) }
func (w *cfgWriter) region(v *int)        { w.b = binary.BigEndian.AppendUint16(w.b, uint16(*v)) }
