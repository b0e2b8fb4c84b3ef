//go:build linux

package udpnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
)

// frameTo builds the datagram a node with id from would send to peer.
func frameTo(from wire.NodeID, to *peerAddr, m wire.Message) outDatagram {
	b := binary.BigEndian.AppendUint32(nil, uint32(from))
	b = m.MarshalBinary(b)
	return outDatagram{buf: &b, to: to}
}

func proposeIDs(first, n int) *wire.Propose {
	ids := make([]wire.PacketID, n)
	for i := range ids {
		ids[i] = wire.PacketID(first + i)
	}
	return &wire.Propose{Stream: 1, IDs: ids}
}

// payloadOf is the deterministic n-byte content of event id, so a retained
// slice can be re-verified from its first byte long after delivery.
func payloadOf(id, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(id + j)
	}
	return p
}

func serveOf(id, payload int) *wire.Serve {
	return &wire.Serve{Stream: 1, Events: []wire.Event{{ID: wire.PacketID(id), Stamp: int64(id), Payload: payloadOf(id, payload)}}}
}

// gsoBurst is one WriteBatch call and, for a socket with GSO, the segment
// count of every send header it must pack into.
type gsoBurst struct {
	name  string
	items []outDatagram
	iovs  []int
}

// gsoBursts covers every way a chunk can group: an equal-size run, a run
// closed by a shorter frame, a longer frame breaking a run, alternating
// destinations, frames above gsoMaxSegment, and Serves whose payloads the
// receiver retains.
func gsoBursts(t *testing.T, r1, r2 *peerAddr) []gsoBurst {
	var bs []gsoBurst
	add := func(name string, iovs []int, items ...outDatagram) {
		bs = append(bs, gsoBurst{name, items, iovs})
	}
	var run []outDatagram
	for i := 0; i < 6; i++ {
		run = append(run, frameTo(0, r1, proposeIDs(10*i, 2)))
	}
	add("equal-size run", []int{6}, run...)
	add("shorter last frame", []int{5},
		frameTo(0, r1, proposeIDs(100, 3)), frameTo(0, r1, proposeIDs(110, 3)),
		frameTo(0, r1, proposeIDs(120, 3)), frameTo(0, r1, proposeIDs(130, 3)),
		frameTo(0, r1, proposeIDs(140, 2)))
	add("longer frame breaks the run", []int{3, 2, 1},
		frameTo(0, r1, proposeIDs(200, 2)), frameTo(0, r1, proposeIDs(210, 2)),
		frameTo(0, r1, proposeIDs(220, 2)), frameTo(0, r1, proposeIDs(230, 3)),
		frameTo(0, r1, proposeIDs(240, 2)), frameTo(0, r1, proposeIDs(250, 2)))
	add("alternating destinations", []int{1, 1, 1, 1},
		frameTo(0, r1, proposeIDs(300, 2)), frameTo(0, r2, proposeIDs(310, 2)),
		frameTo(0, r1, proposeIDs(320, 2)), frameTo(0, r2, proposeIDs(330, 2)))
	add("above the segment cap", []int{1, 1, 1},
		frameTo(0, r1, serveOf(1, 1500)), frameTo(0, r1, serveOf(2, 1500)),
		frameTo(0, r1, serveOf(3, 1500)))
	add("retained serves", []int{4, 1},
		frameTo(0, r2, serveOf(10, 64)), frameTo(0, r2, serveOf(11, 64)),
		frameTo(0, r2, serveOf(12, 64)), frameTo(0, r2, serveOf(13, 64)),
		frameTo(0, r2, serveOf(14, 1400)))
	var long []outDatagram
	for i := 0; i < ioBatchMax+8; i++ {
		long = append(long, frameTo(0, r1, proposeIDs(1000+4*i, 4)))
	}
	add("two chunks", []int{8}, long...) // the last chunk's layout
	for _, b := range bs {
		if len(b.items[0].frame()) > gsoMaxSegment && b.name != "above the segment cap" {
			t.Fatalf("%s: frame of %d B is above the cap", b.name, len(b.items[0].frame()))
		}
	}
	if n := len(bs[4].items[0].frame()); n <= gsoMaxSegment {
		t.Fatalf("above-cap frame is only %d B", n)
	}
	return bs
}

// startedReceivers starts one receiver per handler plus an unstarted sender
// whose socket I/O the test drives directly, all on one I/O path.
func startedReceivers(t *testing.T, disable bool, recvs ...*retainingCollector) (src *Node, dst []*Node) {
	t.Helper()
	var err error
	src, err = NewNode(0, &countingHandler{}, Config{Seed: 60, DisableBatch: disable})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(src.Close)
	peers := map[wire.NodeID]*net.UDPAddr{0: src.Addr()}
	for i, r := range recvs {
		n, err := NewNode(wire.NodeID(i+1), r, Config{Seed: int64(61 + i), DisableBatch: disable})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		dst = append(dst, n)
		peers[n.ID()] = n.Addr()
	}
	src.SetPeers(peers)
	for _, n := range dst {
		n.SetPeers(peers)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return src, dst
}

// TestGSOTrainsDeliverIdentically extends
// TestBatchAndFallbackDeliverIdentically to bursts that form segmented
// sends: every burst is written straight to the sender's socket I/O (so the
// chunks are exactly the bursts), twice, to two receivers. On the batched
// path each burst must pack into the expected headers (when the kernel has
// GSO); on both paths the receivers must see the same multiset of messages,
// no decode errors, and retained Serve payloads intact after the second
// round has reused every staging buffer.
func TestGSOTrainsDeliverIdentically(t *testing.T) {
	run := func(disable bool) []string {
		recvs := []*retainingCollector{{}, {}}
		src, dst := startedReceivers(t, disable, recvs...)
		bursts := gsoBursts(t, src.peers[1], src.peers[2])
		want := 0
		for round := 0; round < 2; round++ {
			for _, b := range bursts {
				src.bio.WriteBatch(b.items)
				want += len(b.items)
				if m, ok := src.bio.(*mmsgIO); ok && m.gso {
					var got []int
					for h := 0; h < m.wk; h++ {
						got = append(got, int(m.shdrs[h].hdr.Iovlen))
					}
					if fmt.Sprint(got) != fmt.Sprint(b.iovs) {
						t.Fatalf("%s: segments per header %v, want %v", b.name, got, b.iovs)
					}
				}
			}
			waitFor(t, 5*time.Second, func() bool { return recvs[0].count()+recvs[1].count() >= want })
		}
		var out []string
		for i, r := range recvs {
			r.mu.Lock()
			for _, p := range r.payloads {
				if !bytes.Equal(p, payloadOf(int(p[0]), len(p))) {
					t.Fatalf("retained payload of event %d corrupted by buffer reuse (disable=%v)", p[0], disable)
				}
			}
			for _, f := range r.frames {
				out = append(out, fmt.Sprintf("%d:%x", i+1, f))
			}
			r.mu.Unlock()
			if e := dst[i].DecodeErrorCount(); e != 0 {
				t.Fatalf("receiver %d: %d decode errors (disable=%v)", i+1, e, disable)
			}
		}
		if len(out) != want {
			t.Fatalf("delivered %d messages, want %d (disable=%v)", len(out), want, disable)
		}
		sort.Strings(out)
		return out
	}
	batched, fallback := run(false), run(true)
	for i := range batched {
		if batched[i] != fallback[i] {
			t.Fatalf("delivery multisets diverge at sorted index %d:\n  batched:  %s\n  fallback: %s", i, batched[i], fallback[i])
		}
	}
}

// rawBatchIO opens a loopback socket with the batched path, skipping the
// test when the kernel lacks either segmentation offload. The returned
// conn is closed (the mmsgIO owns the socket); it still reports its local
// address.
func rawBatchIO(t *testing.T) (*mmsgIO, *net.UDPConn) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	bio, err := newBatchIO(conn)
	if err != nil {
		t.Skip(err)
	}
	m := bio.(*mmsgIO)
	t.Cleanup(func() { m.Close() })
	gro, groErr := 0, error(nil)
	if err := m.Control(func(fd uintptr) {
		gro, groErr = syscall.GetsockoptInt(int(fd), solUDP, udpGRO)
	}); err != nil || groErr != nil || gro == 0 || !m.gso {
		t.Skip("kernel without UDP GSO/GRO")
	}
	return m, conn
}

// TestGROTrainSplitting pins how a coalesced train is taken apart: a
// segmented send arrives at a UDP_GRO socket as one message whose frames all
// share its source address, and undecodable segments cost one decode error
// each without touching their neighbours.
func TestGROTrainSplitting(t *testing.T) {
	garbage := func(n int) outDatagram {
		b := append([]byte{0, 0, 0, 0, 0xff}, make([]byte, n-5)...)
		return outDatagram{buf: &b}
	}

	t.Run("one message per train", func(t *testing.T) {
		// Two senders' trains land in one read: each train is one message,
		// and every frame answers the source check with its own train's
		// sender.
		tx1, conn1 := rawBatchIO(t)
		tx2, conn2 := rawBatchIO(t)
		rx, rconn := rawBatchIO(t)
		to := newPeerAddr(rconn.LocalAddr().(*net.UDPAddr))
		from := []*peerAddr{newPeerAddr(conn1.LocalAddr().(*net.UDPAddr)), newPeerAddr(conn2.LocalAddr().(*net.UDPAddr))}
		var trains [2][]outDatagram
		for i := 0; i < 10; i++ {
			trains[0] = append(trains[0], frameTo(5, to, proposeIDs(i, 3)))
			trains[1] = append(trains[1], frameTo(6, to, proposeIDs(100+i, 2)))
		}
		trains[0] = append(trains[0], frameTo(5, to, proposeIDs(99, 1))) // shorter tail
		for s, tx := range []*mmsgIO{tx1, tx2} {
			tx.WriteBatch(trains[s])
			if tx.wk != 1 {
				t.Fatalf("train %d packed into %d headers, want 1", s, tx.wk)
			}
		}
		want := append(append([]outDatagram(nil), trains[0]...), trains[1]...)
		time.Sleep(10 * time.Millisecond) // both trains queued: one read takes them
		for got, msgs := 0, 0; got < len(want); {
			n, err := rx.ReadBatch()
			if err != nil {
				t.Fatal(err)
			}
			if msgs += rx.own.count; msgs > 2 {
				t.Fatalf("%d messages for 2 trains", msgs)
			}
			for i := 0; i < n; i, got = i+1, got+1 {
				s := 0
				if got >= len(trains[0]) {
					s = 1
				}
				if !bytes.Equal(rx.Frame(i), want[got].frame()) {
					t.Fatalf("frame %d is %x, want %x", got, rx.Frame(i), want[got].frame())
				}
				if !rx.SrcMatches(i, from[s]) || rx.SrcMatches(i, from[1-s]) {
					t.Fatalf("frame %d of train %d fails the source check", got, s)
				}
			}
		}
	})

	t.Run("undecodable segments", func(t *testing.T) {
		recv := &retainingCollector{}
		src, dst := startedReceivers(t, false, recv)
		good := frameTo(0, src.peers[1], proposeIDs(1, 3))
		size := len(good.frame())
		bad := map[int]bool{2: true, 5: true, 9: true}
		var train []outDatagram
		for i := 0; i < 12; i++ {
			if bad[i] {
				d := garbage(size)
				d.to = src.peers[1]
				train = append(train, d)
			} else {
				train = append(train, frameTo(0, src.peers[1], proposeIDs(i, 3)))
			}
		}
		src.bio.WriteBatch(train)
		waitFor(t, 3*time.Second, func() bool { return recv.count() >= len(train)-len(bad) })
		time.Sleep(20 * time.Millisecond) // nothing further may arrive
		if got := dst[0].DecodeErrorCount(); got != len(bad) {
			t.Fatalf("DecodeErrorCount() = %d, want %d", got, len(bad))
		}
		if got := recv.count(); got != len(train)-len(bad) {
			t.Fatalf("delivered %d, want %d", got, len(train)-len(bad))
		}
	})

	t.Run("source check covers the train", func(t *testing.T) {
		recv := &retainingCollector{}
		src, dst := startedReceivers(t, false, recv)
		// Peer 7 is registered at an address nobody sends from: a train
		// claiming it is dropped whole, while the train claiming the
		// sender's true id arrives whole.
		dst[0].AddPeer(7, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9})
		var spoofed, honest []outDatagram
		for i := 0; i < 8; i++ {
			spoofed = append(spoofed, frameTo(7, src.peers[1], proposeIDs(500+i, 2)))
			honest = append(honest, frameTo(0, src.peers[1], proposeIDs(600+i, 2)))
		}
		src.bio.WriteBatch(spoofed)
		src.bio.WriteBatch(honest)
		waitFor(t, 3*time.Second, func() bool { return recv.count() >= len(honest) })
		time.Sleep(20 * time.Millisecond)
		recv.mu.Lock()
		defer recv.mu.Unlock()
		if len(recv.frames) != len(honest) {
			t.Fatalf("delivered %d, want the %d honest frames only", len(recv.frames), len(honest))
		}
		for i, f := range recv.frames {
			if want := string(honest[i].frame()[frameHeader:]); f != want {
				t.Fatalf("frame %d is %x, want %x", i, f, want)
			}
		}
	})

	// Mixed paths: a GRO receiver fed one datagram at a time, and a
	// segmented train sent to a portable receiver (the kernel splits it).
	for _, c := range []struct{ name, txPath, rxPath string }{
		{"portable sender to GRO receiver", "single", "batch"},
		{"GSO sender to portable receiver", "batch", "single"},
	} {
		t.Run(c.name, func(t *testing.T) {
			recv := &retainingCollector{}
			rx, err := NewNode(1, recv, Config{Seed: 70, DisableBatch: c.rxPath == "single"})
			if err != nil {
				t.Fatal(err)
			}
			defer rx.Close()
			tx, err := NewNode(0, &countingHandler{}, Config{Seed: 71, DisableBatch: c.txPath == "single"})
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Close()
			peers := map[wire.NodeID]*net.UDPAddr{0: tx.Addr(), 1: rx.Addr()}
			tx.SetPeers(peers)
			rx.SetPeers(peers)
			if err := rx.Start(); err != nil {
				t.Fatal(err)
			}
			var sent []string
			for _, b := range gsoBursts(t, tx.peers[1], tx.peers[1]) {
				tx.bio.WriteBatch(b.items)
				for _, d := range b.items {
					sent = append(sent, string(d.frame()[frameHeader:]))
				}
			}
			waitFor(t, 5*time.Second, func() bool { return recv.count() >= len(sent) })
			time.Sleep(20 * time.Millisecond)
			recv.mu.Lock()
			got := append([]string(nil), recv.frames...)
			recv.mu.Unlock()
			sort.Strings(sent)
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(sent) || rx.DecodeErrorCount() != 0 {
				t.Fatalf("delivered %d messages (%d decode errors), want the %d sent, identical",
					len(got), rx.DecodeErrorCount(), len(sent))
			}
		})
	}
}

// TestRefusedGSOResendsUnsegmented makes the kernel refuse a segmented send
// (SO_NO_CHECK, which UDP GSO does not allow) and requires the run to arrive
// anyway, datagram by datagram, with GSO off for the socket afterwards. A
// segmented send that fails for its destination instead is no refusal: the
// train is lost like any datagram to that peer, and GSO stays on.
func TestRefusedGSOResendsUnsegmented(t *testing.T) {
	setup := func(t *testing.T, opt, val int) (*mmsgIO, *Node, *retainingCollector) {
		recv := &retainingCollector{}
		src, _ := startedReceivers(t, false, recv)
		m, ok := src.bio.(*mmsgIO)
		if !ok || !m.gso {
			t.Skip("kernel without UDP GSO")
		}
		var soerr error
		if err := m.Control(func(fd uintptr) {
			soerr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, opt, val)
		}); err != nil || soerr != nil {
			t.Skip("socket option unavailable:", err, soerr)
		}
		return m, src, recv
	}

	t.Run("refused by the kernel", func(t *testing.T) {
		m, src, recv := setup(t, syscall.SO_NO_CHECK, 1)
		var items []outDatagram
		items = append(items, frameTo(0, src.peers[1], proposeIDs(0, 1))) // a lone datagram before the run
		for i := 0; i < 9; i++ {
			items = append(items, frameTo(0, src.peers[1], proposeIDs(10*(i+1), 2)))
		}
		src.bio.WriteBatch(items)
		if m.gso {
			t.Fatal("GSO still on after the kernel refused a segmented send")
		}
		waitFor(t, 3*time.Second, func() bool { return recv.count() >= len(items) })
		time.Sleep(20 * time.Millisecond)
		if got := recv.count(); got != len(items) {
			t.Fatalf("delivered %d, want %d", got, len(items))
		}
		// The lone datagram, the refused run, the run again unsegmented.
		if send, _, _ := m.Syscalls(); send < 3 {
			t.Fatalf("%d send syscalls, want at least 3", send)
		}
	})

	t.Run("failing destination", func(t *testing.T) {
		// Without SO_BROADCAST the kernel answers a send to the limited
		// broadcast address with EACCES before building a packet: a
		// destination error that never leaves the host.
		m, src, recv := setup(t, syscall.SO_BROADCAST, 0)
		bcast := newPeerAddr(&net.UDPAddr{IP: net.IPv4bcast, Port: src.peers[1].udp.Port})
		var lost, live []outDatagram
		for i := 0; i < 6; i++ {
			lost = append(lost, frameTo(0, bcast, proposeIDs(10*i, 2)))
			live = append(live, frameTo(0, src.peers[1], proposeIDs(100+10*i, 2)))
		}
		src.bio.WriteBatch(append(lost, live...))
		if !m.gso {
			t.Fatal("GSO turned off by a destination error")
		}
		if m.wk != 2 {
			t.Fatalf("packed into %d headers, want 2 trains", m.wk)
		}
		waitFor(t, 3*time.Second, func() bool { return recv.count() >= len(live) })
		time.Sleep(20 * time.Millisecond)
		if got := recv.count(); got != len(live) {
			t.Fatalf("delivered %d, want the %d of the live train", got, len(live))
		}
		// The failing train, then the live one: no resend.
		if send, _, _ := m.Syscalls(); send != 2 {
			t.Fatalf("%d send syscalls, want 2", send)
		}
	})
}
