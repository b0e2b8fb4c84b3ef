package stream

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestPaperGeometry(t *testing.T) {
	g := PaperGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.PacketsPerWindow() != 110 {
		t.Fatalf("packets per window = %d, want 110", g.PacketsPerWindow())
	}
	// 1316 B at 551 kbps -> 19.1 ms per packet, ~52.36 packets/s.
	iv := g.Interval()
	if iv < 19*time.Millisecond || iv > 20*time.Millisecond {
		t.Fatalf("interval = %v, want ~19.1ms", iv)
	}
	// Effective rate 600 kbps (§3.1).
	eff := g.EffectiveRateBps()
	if eff < 595_000 || eff > 605_000 {
		t.Fatalf("effective rate = %d, want ~600 kbps", eff)
	}
	// Window covers ~1.93s of stream.
	wd := g.WindowDuration()
	if wd < 1900*time.Millisecond || wd > 2*time.Second {
		t.Fatalf("window duration = %v, want ~1.93s", wd)
	}
	// ~11.26 ids per 200 ms propose round (§3.1) counting parity.
	idsPerRound := float64(200*time.Millisecond) / float64(iv) * 110 / 101
	if idsPerRound < 10.5 || idsPerRound > 12 {
		t.Fatalf("ids per 200ms round = %.2f, want ~11.26", idsPerRound)
	}
}

func TestGeometryValidation(t *testing.T) {
	cases := []Geometry{
		{RateBps: 0, PacketBytes: 100, DataPerWindow: 10, ParityPerWindow: 2},
		{RateBps: 1000, PacketBytes: 4, DataPerWindow: 10, ParityPerWindow: 2},
		{RateBps: 1000, PacketBytes: 100, DataPerWindow: 0, ParityPerWindow: 2},
		{RateBps: 1000, PacketBytes: 100, DataPerWindow: 10, ParityPerWindow: 0},
		{RateBps: 1000, PacketBytes: 100, DataPerWindow: 250, ParityPerWindow: 10},
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted: %+v", i, g)
		}
	}
}

func TestWindowIndexing(t *testing.T) {
	g := PaperGeometry()
	cases := []struct {
		id     wire.PacketID
		window int
		index  int
		parity bool
	}{
		{0, 0, 0, false},
		{100, 0, 100, false},
		{101, 0, 101, true},
		{109, 0, 109, true},
		{110, 1, 0, false},
		{110*5 + 103, 5, 103, true},
	}
	for _, tc := range cases {
		if got := g.WindowOf(tc.id); got != tc.window {
			t.Errorf("WindowOf(%d) = %d, want %d", tc.id, got, tc.window)
		}
		if got := g.IndexInWindow(tc.id); got != tc.index {
			t.Errorf("IndexInWindow(%d) = %d, want %d", tc.id, got, tc.index)
		}
		if got := g.IsParity(tc.id); got != tc.parity {
			t.Errorf("IsParity(%d) = %v, want %v", tc.id, got, tc.parity)
		}
		if got := g.PacketIDAt(tc.window, tc.index); got != tc.id {
			t.Errorf("PacketIDAt(%d,%d) = %d, want %d", tc.window, tc.index, got, tc.id)
		}
	}
}

func TestPublishOffsets(t *testing.T) {
	g := PaperGeometry()
	iv := g.Interval()
	if got := g.PublishOffset(0); got != 0 {
		t.Fatalf("first packet offset %v, want 0", got)
	}
	if got := g.PublishOffset(1); got != iv {
		t.Fatalf("second packet offset %v, want %v", got, iv)
	}
	// Parity of window 0 is published with source packet 100.
	if got, want := g.PublishOffset(105), 100*iv; got != want {
		t.Fatalf("parity offset %v, want %v", got, want)
	}
	// First packet of window 1 follows immediately after.
	if got, want := g.PublishOffset(110), 101*iv; got != want {
		t.Fatalf("window-1 first packet offset %v, want %v", got, want)
	}
}

func TestPayloadForDeterministicAndDistinct(t *testing.T) {
	g := PaperGeometry()
	p1 := g.PayloadFor(42)
	p2 := g.PayloadFor(42)
	if !bytes.Equal(p1, p2) {
		t.Fatal("payload generation not deterministic")
	}
	if len(p1) != g.PacketBytes {
		t.Fatalf("payload size %d, want %d", len(p1), g.PacketBytes)
	}
	p3 := g.PayloadFor(43)
	if bytes.Equal(p1, p3) {
		t.Fatal("different ids produced identical payloads")
	}
	// Header carries the id.
	if p1[7] != 42 {
		t.Fatalf("payload header byte = %d, want 42", p1[7])
	}
}

// collectPublisher gathers published events for inspection.
type collectPublisher struct {
	events []wire.Event
}

func (c *collectPublisher) Publish(ev wire.Event) { c.events = append(c.events, ev) }

func TestNewSourceValidation(t *testing.T) {
	pub := &collectPublisher{}
	g := PaperGeometry()
	if _, err := NewSource(SourceConfig{Geometry: g, Windows: 0, Publisher: pub}); err == nil {
		t.Error("zero windows accepted")
	}
	if _, err := NewSource(SourceConfig{Geometry: g, Windows: 1}); err == nil {
		t.Error("nil publisher accepted")
	}
	bad := g
	bad.RateBps = 0
	if _, err := NewSource(SourceConfig{Geometry: bad, Windows: 1, Publisher: pub}); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestNewReceiverValidation(t *testing.T) {
	g := PaperGeometry()
	if _, err := NewReceiver(g, 0, false); err == nil {
		t.Error("zero windows accepted")
	}
	bad := g
	bad.PacketBytes = 1
	if _, err := NewReceiver(bad, 1, false); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestReceiverRecordsAndDuplicates(t *testing.T) {
	g := PaperGeometry()
	r, err := NewReceiver(g, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	r.OnDeliver(wire.Event{ID: 5, Stamp: 1000, Payload: g.PayloadFor(5)}, 2*time.Second)
	r.OnDeliver(wire.Event{ID: 5, Stamp: 1000, Payload: g.PayloadFor(5)}, 3*time.Second) // dup
	r.OnDeliver(wire.Event{ID: 99999, Stamp: 0, Payload: nil}, time.Second)              // out of range
	if r.Received() != 1 {
		t.Fatalf("received = %d, want 1", r.Received())
	}
	at, ok := r.ReceivedAt(5)
	if !ok || at != 2*time.Second {
		t.Fatalf("ReceivedAt(5) = %v,%v; want 2s,true", at, ok)
	}
	if _, ok := r.ReceivedAt(6); ok {
		t.Fatal("ReceivedAt(6) should be false")
	}
}

// TestReceiverBytesPerPacket: a receiver outside verify mode keeps one
// arrival time per packet, 8 bytes; the constant beside it is allocation
// rounding, up to a page.
func TestReceiverBytesPerPacket(t *testing.T) {
	g := PaperGeometry()
	const windows = 100
	n := g.TotalPackets(windows)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := NewReceiver(g, windows, false)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(8*n+8192) {
		t.Fatalf("NewReceiver for %d packets allocated %d bytes, %.1f per packet; want <= 8 plus a page",
			n, got, float64(got)/float64(n))
	}
	runtime.KeepAlive(r)
}

func TestReceiverVerifyModeReconstructs(t *testing.T) {
	// Small geometry so the test is brisk: 5+3 window.
	g := Geometry{RateBps: 100_000, PacketBytes: 64, DataPerWindow: 5, ParityPerWindow: 3}
	src, err := NewSource(SourceConfig{Geometry: g, Windows: 2, Publisher: &collectPublisher{}})
	if err != nil {
		t.Fatal(err)
	}
	_ = src
	// Build window 0's true content via the real encoder path: generate
	// source payloads and parity exactly as the source would.
	r, err := NewReceiver(g, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	pub := &collectPublisher{}
	s2, err := NewSource(SourceConfig{Geometry: g, Windows: 2, Publisher: pub})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s2, g, 2)
	if len(pub.events) != g.TotalPackets(2) {
		t.Fatalf("source produced %d packets, want %d", len(pub.events), g.TotalPackets(2))
	}
	// Deliver window 0 minus 3 source packets (indices 0,2,4): still
	// decodable from 2 source + 3 parity.
	for _, ev := range pub.events {
		w := g.WindowOf(ev.ID)
		idx := g.IndexInWindow(ev.ID)
		if w == 0 && (idx == 0 || idx == 2 || idx == 4) {
			continue
		}
		r.OnDeliver(ev, time.Duration(ev.ID)*time.Millisecond)
	}
	if r.DecodedWindows != 2 {
		t.Fatalf("decoded windows = %d, want 2", r.DecodedWindows)
	}
	if r.VerifyFailures != 0 {
		t.Fatalf("verify failures = %d, want 0", r.VerifyFailures)
	}
}

func TestReceiverVerifyModeUndercodableWindow(t *testing.T) {
	g := Geometry{RateBps: 100_000, PacketBytes: 64, DataPerWindow: 5, ParityPerWindow: 3}
	pub := &collectPublisher{}
	s, err := NewSource(SourceConfig{Geometry: g, Windows: 1, Publisher: pub})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, g, 1)
	r, err := NewReceiver(g, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver only 4 of 8 packets: window stays undecodable.
	for i, ev := range pub.events {
		if i >= 4 {
			break
		}
		r.OnDeliver(ev, time.Millisecond)
	}
	if r.DecodedWindows != 0 {
		t.Fatalf("decoded windows = %d, want 0", r.DecodedWindows)
	}
}

// drive runs a source over a minimal fake runtime until it finishes.
func drive(t *testing.T, s *Source, g Geometry, windows int) {
	t.Helper()
	rt := &fakeRuntime{}
	s.Start(rt)
	ticks := windows * g.DataPerWindow
	for i := 0; i <= ticks && !s.Done; i++ {
		rt.fire()
	}
	if !s.Done {
		t.Fatal("source did not finish")
	}
	if got, want := s.Published, g.TotalPackets(windows); got != want {
		t.Fatalf("published %d, want %d", got, want)
	}
}
