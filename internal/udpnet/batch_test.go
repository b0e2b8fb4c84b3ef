package udpnet

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/wire"
)

// retainingCollector records every message and, for Serves, keeps the
// payload slices it was handed — exactly what the engine's buffer table and
// the stream receiver do. Retained payloads must stay intact while the read
// loop keeps receiving into its reusable staging buffers.
type retainingCollector struct {
	mu       sync.Mutex
	frames   []string // marshaled form of every received message
	payloads [][]byte // Serve payloads, retained as delivered (no copy)
}

func (c *retainingCollector) Start(env.Runtime) {}
func (c *retainingCollector) Stop()             {}
func (c *retainingCollector) Receive(_ wire.NodeID, m wire.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, string(m.MarshalBinary(nil)))
	if sv, ok := m.(*wire.Serve); ok {
		for _, e := range sv.Events {
			c.payloads = append(c.payloads, e.Payload)
		}
	}
}

func (c *retainingCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// servePayload is the deterministic content of event id, so retained slices
// can be re-verified long after delivery.
func servePayload(id int) []byte {
	p := make([]byte, 64)
	for j := range p {
		p[j] = byte(id + j)
	}
	return p
}

type equivalenceSender struct {
	to wire.NodeID
	n  int
}

func (s *equivalenceSender) Start(rt env.Runtime) {
	for i := 0; i < s.n; i++ {
		rt.Send(s.to, &wire.Serve{
			Stream: 1,
			Events: []wire.Event{{ID: wire.PacketID(i), Stamp: int64(i), Payload: servePayload(i)}},
		})
		rt.Send(s.to, &wire.Propose{Stream: 1, IDs: []wire.PacketID{wire.PacketID(i), wire.PacketID(i + 1000)}})
	}
}
func (s *equivalenceSender) Receive(wire.NodeID, wire.Message) {}
func (s *equivalenceSender) Stop()                             {}

// TestBatchAndFallbackDeliverIdentically runs the same burst over loopback
// with the batched-syscall path and with DisableBatch, and requires
// byte-identical delivery (as a multiset of marshaled messages), zero
// decode errors, and retained Serve payloads that survive continued
// receive-buffer reuse. On platforms without a batch path the two runs
// coincide — the test then simply pins the portable semantics.
func TestBatchAndFallbackDeliverIdentically(t *testing.T) {
	const msgs = 40 // 40 Serves + 40 Proposes per run
	run := func(disable bool) []string {
		recv := &retainingCollector{}
		b, err := NewNode(1, recv, Config{Seed: 21, DisableBatch: disable})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		a, err := NewNode(0, &equivalenceSender{to: 1, n: msgs}, Config{Seed: 22, DisableBatch: disable})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		peers := map[wire.NodeID]*net.UDPAddr{0: a.Addr(), 1: b.Addr()}
		a.SetPeers(peers)
		b.SetPeers(peers)
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool { return recv.count() >= 2*msgs })

		// A second burst forces the read loop to refill its staging buffers;
		// the payloads retained from the first burst must not change.
		a.Execute(func() {
			(&equivalenceSender{to: 1, n: msgs}).Start(&nodeRuntime{n: a})
		})
		waitFor(t, 5*time.Second, func() bool { return recv.count() >= 4*msgs })

		recv.mu.Lock()
		defer recv.mu.Unlock()
		seen := make(map[int]int)
		for _, p := range recv.payloads {
			if len(p) != 64 {
				t.Fatalf("retained payload has length %d, want 64", len(p))
			}
			id := int(p[0])
			if !bytes.Equal(p, servePayload(id)) {
				t.Fatalf("retained payload for event %d corrupted by buffer reuse (disable=%v)", id, disable)
			}
			seen[id]++
		}
		for id, n := range seen {
			if n != 2 {
				t.Fatalf("event %d delivered %d times, want 2 (disable=%v)", id, n, disable)
			}
		}
		if decodeErrs := b.DecodeErrorCount(); decodeErrs != 0 {
			t.Fatalf("DecodeErrorCount() = %d with disable=%v, want 0", decodeErrs, disable)
		}
		out := append([]string(nil), recv.frames...)
		sort.Strings(out)
		return out
	}

	batched := run(false)
	fallback := run(true)
	if len(batched) != len(fallback) {
		t.Fatalf("batched delivered %d messages, fallback %d", len(batched), len(fallback))
	}
	for i := range batched {
		if batched[i] != fallback[i] {
			t.Fatalf("delivery multisets diverge at sorted index %d:\n  batched:  %x\n  fallback: %x",
				i, batched[i], fallback[i])
		}
	}
}

// TestSpoofedSenderRejectedOnBatchPath pins the source-address check the
// batch read loop performs on raw sockaddrs: a datagram claiming a known
// peer's id from the wrong source address must not reach the handler, on
// either path.
func TestSpoofedSenderRejectedOnBatchPath(t *testing.T) {
	for _, disable := range []bool{false, true} {
		t.Run(fmt.Sprintf("disable=%v", disable), func(t *testing.T) {
			recv := &collector{}
			n, err := NewNode(0, recv, Config{Seed: 23, DisableBatch: disable})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			// Register peer 7 at an address nobody sends from.
			n.AddPeer(7, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9})

			conn, err := net.DialUDP("udp", nil, n.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			spoofed := []byte{0, 0, 0, 7}
			spoofed = (&wire.Propose{IDs: []wire.PacketID{1}}).MarshalBinary(spoofed)
			honest := []byte{0, 0, 0, 42} // unknown id: accepted (late directory)
			honest = (&wire.Propose{IDs: []wire.PacketID{2}}).MarshalBinary(honest)
			for i := 0; i < 5; i++ {
				if _, err := conn.Write(spoofed); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := conn.Write(honest); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 3*time.Second, func() bool { return recv.count() >= 1 })
			time.Sleep(50 * time.Millisecond) // let any spoofed stragglers land
			recv.mu.Lock()
			defer recv.mu.Unlock()
			for _, m := range recv.got {
				if p, ok := m.(*wire.Propose); ok && len(p.IDs) == 1 && p.IDs[0] == 1 {
					t.Fatal("spoofed datagram reached the handler")
				}
			}
		})
	}
}

// TestSyscallCounters reads udp_send_syscalls_total and
// udp_recv_syscalls_total from Collect on both I/O paths. The portable path
// makes exactly one send call per datagram sent and one receive call per
// datagram received, plus the read now waiting for the next; the batched
// path makes at least one of each and never more sends than datagrams here.
func TestSyscallCounters(t *testing.T) {
	collect := func(n *Node) map[string]float64 {
		m := map[string]float64{}
		n.Collect(func(name string, v float64) { m[name] = v })
		return m
	}
	for _, disable := range []bool{false, true} {
		t.Run(fmt.Sprintf("disable=%v", disable), func(t *testing.T) {
			src, dst, recv := loopbackPair(t, disable)
			const datagrams = 2000
			received, _ := pump(src, recv, datagrams)
			tx, rx := collect(src), collect(dst)
			sent, sendCalls := tx["udp_send_datagrams_total"], tx["udp_send_syscalls_total"]
			recvCalls := rx["udp_recv_syscalls_total"]
			t.Logf("%v datagrams in %v send syscalls; %d received in %v receive syscalls",
				sent, sendCalls, received, recvCalls)
			if sent != datagrams || received != datagrams {
				t.Fatalf("sent %v, received %d, want %d each", sent, received, datagrams)
			}
			if disable {
				if sendCalls != sent {
					t.Fatalf("%v send syscalls for %v datagrams, want equal", sendCalls, sent)
				}
				if recvCalls < float64(received) || recvCalls > float64(received)+1 {
					t.Fatalf("%v receive syscalls for %d datagrams", recvCalls, received)
				}
				return
			}
			if sendCalls < 1 || sendCalls > sent || recvCalls < 1 {
				t.Fatalf("%v send and %v receive syscalls for %v datagrams", sendCalls, recvCalls, sent)
			}
		})
	}
}
