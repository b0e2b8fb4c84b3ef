package wire

import (
	"bytes"
	"math"
	"testing"
)

// scribbleMessage overwrites everything in m except payload bytes: what its
// owner's next use of the message does.
func scribbleMessage(m Message) {
	const id = PacketID(0xdeadbeefdeadbeef)
	junk := []byte("scribbled")
	switch x := m.(type) {
	case *Propose:
		x.Stream = 0xdead
		for i := range x.IDs {
			x.IDs[i] = id
		}
	case *Request:
		x.Stream = 0xdead
		for i := range x.IDs {
			x.IDs[i] = id
		}
	case *Serve:
		x.Stream = 0xdead
		for i := range x.Events {
			x.Events[i] = Event{ID: id, Stream: 0xdead, Stamp: -1, Payload: junk}
		}
	case *Aggregate:
		for i := range x.Entries {
			x.Entries[i] = CapEntry{Node: 0xdead, CapKbps: math.MaxUint32}
		}
	case *ShuffleReq:
		for i := range x.Descriptors {
			x.Descriptors[i] = PeerDescriptor{Node: 0xdead}
		}
	case *ShuffleReply:
		for i := range x.Descriptors {
			x.Descriptors[i] = PeerDescriptor{Node: 0xdead}
		}
	case *AvgPush:
		x.Value, x.Weight = math.NaN(), math.NaN()
	case *AvgReply:
		x.Value, x.Weight = math.NaN(), math.NaN()
	}
}

// FuzzPoolCopy pins what the simulator relies on when it carries messages in
// a Pool: for any frame that decodes, a copy marshals to the frame's bytes
// and keeps them when the original is scribbled on afterwards; a Serve Put
// back pins no payload; and a copy made from recycled storage never aliases
// a copy that is still live.
func FuzzPoolCopy(f *testing.F) {
	for kind := uint8(1); kind <= 8; kind++ {
		f.Add(Marshal(fuzzMessage(kind, 5, 0x0123456789abcdef, 512, uint32(kind), []byte("payload"))))
		f.Add(Marshal(fuzzMessage(kind, 0, 0, 0, 0, nil)))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Unmarshal(frame)
		if err != nil {
			return
		}
		var p Pool
		a, b := p.Copy(m), p.Copy(m)
		scribbleMessage(m)
		if got := Marshal(a); !bytes.Equal(got, frame) {
			t.Fatalf("scribbling the original changed its copy:\n frame: %x\n copy:  %x", frame, got)
		}
		p.Put(a)
		if s, ok := a.(*Serve); ok {
			for i, ev := range s.Events {
				if ev.Payload != nil {
					t.Fatalf("pooled Serve still holds event %d's payload", i)
				}
			}
		}
		c := p.Copy(m) // a's storage, now holding the scribbled original
		if got, want := Marshal(c), Marshal(m); !bytes.Equal(got, want) {
			t.Fatalf("copy from recycled storage:\n want: %x\n got:  %x", want, got)
		}
		scribbleMessage(c)
		if got := Marshal(b); !bytes.Equal(got, frame) {
			t.Fatalf("a recycled copy aliases a live one:\n frame: %x\n live:  %x", frame, got)
		}
	})
}

// TestPoolWarmAllocatesNothing is the simulator's half of the zero-allocation
// send path: once a pool has taken back a copy of a kind, copying another of
// that kind (no longer than the longest so far) allocates nothing.
func TestPoolWarmAllocatesNothing(t *testing.T) {
	for kind := uint8(1); kind <= 8; kind++ {
		m := fuzzMessage(kind, 5, 0x0123456789abcdef, 512, uint32(kind), []byte("payload"))
		var p Pool
		p.Put(p.Copy(m))
		if allocs := testing.AllocsPerRun(100, func() { p.Put(p.Copy(m)) }); allocs != 0 {
			t.Errorf("%s: a warm Pool's Copy allocates %v objects, want 0", m.Kind(), allocs)
		}
	}
}
