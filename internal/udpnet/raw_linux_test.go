//go:build linux

package udpnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/wire"
)

// TestBatchSocketNonblocking: every call on the batched path's descriptor
// but the writability wait is a raw syscall, which is only correct if it
// cannot block. newBatchIO must therefore leave its dup non-blocking even
// when the socket it was handed is not: the dup shares the socket's file
// status, so the test clears O_NONBLOCK first, where inheriting the net
// package's flag would otherwise pass it.
func TestBatchSocketNonblocking(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rc, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var setErr error
	if err := rc.Control(func(fd uintptr) { setErr = syscall.SetNonblock(int(fd), false) }); err != nil || setErr != nil {
		t.Fatal(err, setErr)
	}
	bio, err := newBatchIO(conn)
	if err != nil {
		t.Skip(err)
	}
	defer bio.Close()
	var flags uintptr
	var errno syscall.Errno
	if err := bio.Control(func(fd uintptr) {
		flags, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0)
	}); err != nil || errno != 0 {
		t.Fatal(err, errno)
	}
	if flags&syscall.O_NONBLOCK == 0 {
		t.Fatalf("batched descriptor flags %#x lack O_NONBLOCK", flags)
	}
}

// TestLoopSyscallsAreRaw scans the Linux event loop's I/O (batch_linux.go,
// wait_linux.go) for the raw-syscall rule: the scheduler-accounted entry
// points (syscall.Syscall, Syscall6 and the Read and Write wrappers) appear
// only in waitWritable, the one call that can wait, and the calls the loop
// makes per datagram or per wake — recvmmsg, sendmmsg and the eventfd poke
// — are raw.
func TestLoopSyscallsAreRaw(t *testing.T) {
	accounted := map[string]bool{"Syscall": true, "Syscall6": true, "Read": true, "Write": true}
	mustBeRaw := map[string]bool{"recv": true, "send": true, "poke": true}
	raw := map[string]int{}
	fset := token.NewFileSet()
	for _, name := range []string{"batch_linux.go", "wait_linux.go"} {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "syscall" {
					return true
				}
				switch {
				case accounted[sel.Sel.Name] && fn.Name.Name != "waitWritable":
					t.Errorf("%s: %s calls syscall.%s; only waitWritable may block on the scheduler's books",
						fset.Position(call.Pos()), fn.Name.Name, sel.Sel.Name)
				case sel.Sel.Name == "RawSyscall" || sel.Sel.Name == "RawSyscall6":
					raw[fn.Name.Name]++
				}
				return true
			})
		}
	}
	for name := range mustBeRaw {
		if raw[name] == 0 {
			t.Errorf("%s issues no raw syscall (or is gone from the scanned files)", name)
		}
	}
}

// TestBatchedReadsNeverFindEmpty: the loop reads only the sockets its wait
// reported readable, and is each socket's one reader, so an 8-node paced
// exchange ends with no recvmmsg that returned EAGAIN
// (udp_recv_empty_syscalls_total) while every node read something.
func TestBatchedReadsNeverFindEmpty(t *testing.T) {
	nodes, _ := startGossipers(t, 8, 110)
	if _, ok := nodes[0].bio.(*mmsgIO); !ok {
		t.Skip("no batched path on this host")
	}
	time.Sleep(200 * time.Millisecond)
	for i, n := range nodes {
		m := map[string]float64{}
		n.Collect(func(name string, v float64) { m[name] = v })
		if m["udp_recv_syscalls_total"] == 0 {
			t.Fatalf("node %d made no receive syscall", i)
		}
		if empty := m["udp_recv_empty_syscalls_total"]; empty != 0 {
			t.Errorf("node %d: %v of %v receive syscalls found the socket empty",
				i, empty, m["udp_recv_syscalls_total"])
		}
	}
}

// TestLoopSharesOneReceiveStage: the event loop reads every batched socket
// into its waiter's one staging area, so two receiving nodes on one loop
// allocate no stage of their own.
func TestLoopSharesOneReceiveStage(t *testing.T) {
	recv := []*collector{{}, {}}
	handlers := []env.Handler{&sendOnStart{to: 1}, recv[0], recv[1], &sendOnStart{to: 2}}
	nodes := make([]*Node, len(handlers))
	peers := map[wire.NodeID]*net.UDPAddr{}
	for i, h := range handlers {
		n, err := NewNode(wire.NodeID(i), h, Config{Seed: int64(40 + i)})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i], peers[wire.NodeID(i)] = n, n.Addr()
	}
	for _, n := range nodes {
		n.SetPeers(peers)
	}
	for _, i := range []int{1, 2, 0, 3} { // receivers first
		if err := nodes[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 3*time.Second, func() bool { return recv[0].count() >= 1 && recv[1].count() >= 1 })
	w, ok := nodes[1].host.Load().w.(*epollWaiter)
	if !ok {
		t.Skip("the loop does not wait in epoll")
	}
	for _, i := range []int{1, 2} {
		m, ok := nodes[i].bio.(*mmsgIO)
		if !ok {
			t.Skip("no batched path on this host")
		}
		var rx, own *rxStage
		nodes[i].Execute(func() { rx, own = m.rx, m.own })
		if rx == nil || rx != w.rx || own != nil {
			t.Fatalf("node %d read into stage %p (own %p), the waiter's is %p", i, rx, own, w.rx)
		}
	}
}
