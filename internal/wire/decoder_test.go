package wire

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// TestDecoderWarmAllocatesNothing is the decode half of the live path's
// allocation budget: once a decoder has seen a message of a kind, decoding
// another of that kind (no longer than the longest so far) allocates nothing.
func TestDecoderWarmAllocatesNothing(t *testing.T) {
	payload := make([]byte, 1316)
	for _, m := range []Message{
		&Propose{Stream: 1, IDs: fuzzIDs(12, 7)},
		&Request{IDs: fuzzIDs(12, 7)},
		&Serve{Stream: 1, Events: []Event{{ID: 1, Stamp: 2, Payload: payload}, {ID: 2, Stamp: 3, Payload: payload}}},
		&Aggregate{Entries: []CapEntry{{Node: 3, CapKbps: 512, AgeMs: 100}, {Node: 4, CapKbps: 3000}}},
		&ShuffleReq{Descriptors: fuzzDescriptors(8, 40)},
	} {
		buf := Marshal(m)
		var d Decoder
		if _, err := d.Unmarshal(buf); err != nil {
			t.Fatalf("%s: %v", m.Kind(), err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := d.Unmarshal(buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm Decoder.Unmarshal allocates %v objects per call, want 0", m.Kind(), allocs)
		}
	}
}

// sameMessage is deep equality over decoded messages: same kind, same fields,
// an empty list equal to a nil one, floats compared by bits (a fuzzed NaN
// equals itself).
func sameMessage(a, b Message) bool {
	switch x := a.(type) {
	case *Propose:
		y, ok := b.(*Propose)
		return ok && x.Stream == y.Stream && slices.Equal(x.IDs, y.IDs)
	case *Request:
		y, ok := b.(*Request)
		return ok && x.Stream == y.Stream && slices.Equal(x.IDs, y.IDs)
	case *Serve:
		y, ok := b.(*Serve)
		return ok && x.Stream == y.Stream && slices.EqualFunc(x.Events, y.Events, func(p, q Event) bool {
			return p.ID == q.ID && p.Stream == q.Stream && p.Stamp == q.Stamp && bytes.Equal(p.Payload, q.Payload)
		})
	case *Aggregate:
		y, ok := b.(*Aggregate)
		return ok && slices.Equal(x.Entries, y.Entries)
	case *ShuffleReq:
		y, ok := b.(*ShuffleReq)
		return ok && slices.Equal(x.Descriptors, y.Descriptors)
	case *ShuffleReply:
		y, ok := b.(*ShuffleReply)
		return ok && slices.Equal(x.Descriptors, y.Descriptors)
	case *AvgPush:
		y, ok := b.(*AvgPush)
		return ok && math.Float64bits(x.Value) == math.Float64bits(y.Value) &&
			math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
	case *AvgReply:
		y, ok := b.(*AvgReply)
		return ok && math.Float64bits(x.Value) == math.Float64bits(y.Value) &&
			math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
	}
	return a == nil && b == nil
}

// FuzzDecoderReuse pins what the UDP read loop relies on when it keeps one
// Decoder per staging slot: for arbitrary byte strings A and B, decoding B on
// a decoder that just decoded A gives exactly what decoding B fresh gives —
// the same error, or a deeply equal message (a longer A must not leak ids,
// entries or event fields into a shorter B) — and a Serve's payloads alias B,
// never the decoder.
func FuzzDecoderReuse(f *testing.F) {
	// Seeds: the FuzzRoundTrip corpus as (longer A, shorter B) pairs over
	// every pair of kinds, plus each B cut one byte short (the error path).
	encode := func(kind uint8, count uint16, stream uint32) []byte {
		return Marshal(fuzzMessage(kind, count, 0x0123456789abcdef, 512, stream, []byte("payload")))
	}
	for ka := uint8(1); ka <= 8; ka++ {
		a := encode(ka, 5, uint32(ka))
		for kb := uint8(1); kb <= 8; kb++ {
			f.Add(a, encode(kb, 2, 0))
		}
		b := encode(ka, 3, uint32(ka))
		f.Add(a, b[:len(b)-1])
	}
	f.Add([]byte{}, []byte{0xff, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, a, b []byte) {
		want, wantErr := Unmarshal(bytes.Clone(b))
		var d Decoder
		d.Unmarshal(a)
		got, gotErr := d.Unmarshal(b)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("after decoding %x, decoding %x fails with %v; fresh: %v", a, b, gotErr, wantErr)
		}
		if !sameMessage(got, want) {
			t.Fatalf("after decoding %x, decoding %x gives %+v; fresh: %+v", a, b, got, want)
		}
		serve, ok := got.(*Serve)
		if !ok {
			return
		}
		// Flipping B must flip every payload and nothing else can have: the
		// payloads are views of B.
		for i := range b {
			b[i] ^= 0xff
		}
		for i, ev := range serve.Events {
			flipped := bytes.Clone(want.(*Serve).Events[i].Payload)
			for j := range flipped {
				flipped[j] ^= 0xff
			}
			if !bytes.Equal(ev.Payload, flipped) {
				t.Fatalf("event %d's payload does not alias the input buffer", i)
			}
		}
	})
}
