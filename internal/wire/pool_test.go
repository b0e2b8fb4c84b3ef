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

// withItems returns a message of m's kind carrying n items, cycling through
// m's own (zero values when m has none).
func withItems(m Message, n int) Message {
	switch x := m.(type) {
	case *Propose:
		return &Propose{Stream: x.Stream, IDs: cycled(x.IDs, n)}
	case *Request:
		return &Request{Stream: x.Stream, IDs: cycled(x.IDs, n)}
	case *Serve:
		return &Serve{Stream: x.Stream, Events: cycled(x.Events, n)}
	case *Aggregate:
		return &Aggregate{Entries: cycled(x.Entries, n)}
	case *ShuffleReq:
		return &ShuffleReq{Descriptors: cycled(x.Descriptors, n)}
	case *ShuffleReply:
		return &ShuffleReply{Descriptors: cycled(x.Descriptors, n)}
	}
	return m // AvgPush and AvgReply carry no slice
}

func cycled[T any](s []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		if len(s) > 0 {
			out[i] = s[i%len(s)]
		}
	}
	return out
}

// items returns the length and capacity of m's one slice (0, 0 for the
// averaging messages).
func items(m Message) (n, capacity int) {
	switch x := m.(type) {
	case *Propose:
		return len(x.IDs), cap(x.IDs)
	case *Request:
		return len(x.IDs), cap(x.IDs)
	case *Serve:
		return len(x.Events), cap(x.Events)
	case *Aggregate:
		return len(x.Entries), cap(x.Entries)
	case *ShuffleReq:
		return len(x.Descriptors), cap(x.Descriptors)
	case *ShuffleReply:
		return len(x.Descriptors), cap(x.Descriptors)
	}
	return 0, 0
}

// FuzzPoolCopy pins what the simulator relies on when it carries messages in
// a Pool: for any frame that decodes, a copy marshals to the frame's bytes
// and keeps them when the original is scribbled on afterwards; a Serve Put
// back pins no payload; a copy made from recycled storage never aliases a
// copy that is still live; and no copy holds twice the capacity it needs.
// The pool is first warmed with one longer and one shorter message of the
// frame's kind, so copies land on slices that carried other lengths.
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
		n, _ := items(m)
		longer, shorter := p.Copy(withItems(m, n+1)), p.Copy(withItems(m, max(n-1, 0)))
		p.Put(longer)
		p.Put(shorter)
		a, b := p.Copy(m), p.Copy(m)
		for _, c := range []Message{a, b} {
			if n, capacity := items(c); capacity > 0 && capacity >= 2*n {
				t.Fatalf("a copy of %d items has capacity %d", n, capacity)
			}
		}
		scribbleMessage(m)
		if got := Marshal(a); !bytes.Equal(got, frame) {
			t.Fatalf("scribbling the original changed its copy:\n frame: %x\n copy:  %x", frame, got)
		}
		var events []Event
		if s, ok := a.(*Serve); ok {
			events = s.Events
		}
		p.Put(a)
		for i, ev := range events {
			if ev.Payload != nil {
				t.Fatalf("pooled Serve still holds event %d's payload", i)
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

// TestPoolCopySizedToContent: a copy's capacity follows what it carries, not
// the longest message of its kind the pool has seen.
func TestPoolCopySizedToContent(t *testing.T) {
	var p Pool
	p.Put(p.Copy(&Propose{IDs: make([]PacketID, 300)}))
	p.Put(p.Copy(&Serve{Events: make([]Event, 40)}))
	for _, m := range []Message{&Propose{IDs: []PacketID{7}}, &Serve{Events: []Event{{ID: 7, Payload: []byte("payload")}}}} {
		if n, capacity := items(p.Copy(m)); n != 1 || capacity != 1 {
			t.Errorf("%s: a 1-item copy has %d items and capacity %d, want 1 and 1", m.Kind(), n, capacity)
		}
	}
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
