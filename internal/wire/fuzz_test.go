package wire

import (
	"bytes"
	"math"
	"testing"
)

// FuzzUnmarshal exercises the decoder with arbitrary bytes: it must never
// panic, and anything it accepts must round-trip losslessly through
// Marshal/Unmarshal (canonical encoding).
func FuzzUnmarshal(f *testing.F) {
	seeds := []Message{
		&Propose{IDs: []PacketID{1, 2, 3}},
		&Request{IDs: []PacketID{42}},
		&Serve{Events: []Event{{ID: 7, Stamp: 99, Payload: []byte("payload")}}},
		// Multi-stream corpus: the same dissemination messages carrying
		// non-zero stream ids (the flagged count + 4-byte field encoding).
		&Propose{Stream: 1, IDs: []PacketID{1, 2, 3}},
		&Request{Stream: 3, IDs: []PacketID{42}},
		&Serve{Stream: 0xffffffff, Events: []Event{{ID: 7, Stream: 0xffffffff, Stamp: 99, Payload: []byte("payload")}}},
		&Aggregate{Entries: []CapEntry{{Node: 3, CapKbps: 512, AgeMs: 100}}},
		&ShuffleReq{Descriptors: []PeerDescriptor{{Node: 1, Age: 2}}},
		&ShuffleReply{Descriptors: []PeerDescriptor{{Node: 9, Age: 0}}},
		&AvgPush{Value: 1.5, Weight: 1},
		&AvgReply{Value: -2.5, Weight: 1},
	}
	for _, m := range seeds {
		f.Add(Marshal(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Canonical re-encoding must reproduce the input exactly.
		out := Marshal(m)
		if !bytes.Equal(out, data) {
			t.Fatalf("non-canonical encoding accepted:\n in: %x\nout: %x", data, out)
		}
		if m.WireSize() != len(data) {
			t.Fatalf("WireSize %d != encoded length %d", m.WireSize(), len(data))
		}
	})
}

// FuzzRoundTrip starts from structured values instead of raw bytes: it
// builds a message of every kind from fuzzed fields and checks that
// encode → decode → encode is byte-identical (and that WireSize always
// matches the encoder's actual output). Together with FuzzUnmarshal this
// pins the codec from both directions.
func FuzzRoundTrip(f *testing.F) {
	// One seed per message kind, so the corpus reaches every branch of the
	// builder immediately — once on the legacy stream 0 and once on a
	// non-zero stream (the multi-stream corpus for the dissemination kinds).
	for kind := uint8(1); kind <= 8; kind++ {
		f.Add(kind, uint16(3), uint64(0x0123456789abcdef), uint32(512), uint32(0), []byte("payload"))
		f.Add(kind, uint16(3), uint64(0x0123456789abcdef), uint32(512), uint32(kind), []byte("payload"))
	}

	f.Fuzz(func(t *testing.T, kindSel uint8, count uint16, base uint64, v uint32, streamSel uint32, payload []byte) {
		m := fuzzMessage(kindSel, count, base, v, streamSel, payload)

		enc1 := Marshal(m)
		if len(enc1) != m.WireSize() {
			t.Fatalf("%s: WireSize %d but Marshal wrote %d bytes", m.Kind(), m.WireSize(), len(enc1))
		}
		decoded, err := Unmarshal(enc1)
		if err != nil {
			t.Fatalf("%s: decoding own encoding failed: %v", m.Kind(), err)
		}
		enc2 := Marshal(decoded)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%s: encode→decode→encode not byte-identical:\n 1: %x\n 2: %x", m.Kind(), enc1, enc2)
		}
	})
}

// fuzzMessage builds a message of the selected kind from fuzzed fields — the
// structured half of the corpus, shared by FuzzRoundTrip and FuzzDecoderReuse.
func fuzzMessage(kindSel uint8, count uint16, base uint64, v uint32, streamSel uint32, payload []byte) Message {
	if len(payload) > 256 {
		payload = payload[:256]
	}
	stream := StreamID(streamSel)
	switch Kind(kindSel%8 + 1) {
	case KindPropose:
		return &Propose{Stream: stream, IDs: fuzzIDs(count%64, base)}
	case KindRequest:
		return &Request{Stream: stream, IDs: fuzzIDs(count%64, base)}
	case KindServe:
		events := make([]Event, count%8)
		for i := range events {
			events[i] = Event{
				ID:      PacketID(base + uint64(i)),
				Stream:  stream,
				Stamp:   int64(base ^ uint64(v)),
				Payload: payload,
			}
		}
		return &Serve{Stream: stream, Events: events}
	case KindAggregate:
		entries := make([]CapEntry, count%32)
		for i := range entries {
			entries[i] = CapEntry{Node: NodeID(int32(v) + int32(i)), CapKbps: v, AgeMs: uint32(base)}
		}
		return &Aggregate{Entries: entries}
	case KindShuffleReq:
		return &ShuffleReq{Descriptors: fuzzDescriptors(count%32, v)}
	case KindShuffleReply:
		return &ShuffleReply{Descriptors: fuzzDescriptors(count%32, v)}
	case KindAvgPush:
		return &AvgPush{Value: math.Float64frombits(base), Weight: float64(v)}
	default:
		return &AvgReply{Value: math.Float64frombits(base), Weight: float64(v)}
	}
}

func fuzzIDs(n uint16, base uint64) []PacketID {
	ids := make([]PacketID, n)
	for i := range ids {
		ids[i] = PacketID(base + uint64(i)*7)
	}
	return ids
}

func fuzzDescriptors(n uint16, v uint32) []PeerDescriptor {
	ds := make([]PeerDescriptor, n)
	for i := range ds {
		ds[i] = PeerDescriptor{Node: NodeID(int32(v) - int32(i)), Age: uint16(v) + uint16(i)}
	}
	return ds
}
