//go:build linux

package udpnet

import (
	"syscall"
	"testing"
)

func sockBuf(t *testing.T, n *Node, opt int) int {
	t.Helper()
	var val int
	var soerr error
	if err := n.bio.Control(func(fd uintptr) {
		val, soerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, opt)
	}); err != nil {
		t.Fatal(err)
	}
	if soerr != nil {
		t.Fatal(soerr)
	}
	return val
}

// TestSocketBufferBytesApplied checks that the SO_RCVBUF/SO_SNDBUF request
// reaches the socket. The kernel doubles the requested value (bookkeeping
// overhead) and clamps to rmem_max/wmem_max, so assert the buffers grew
// past a kernel-default-sized baseline rather than an exact value.
func TestSocketBufferBytesApplied(t *testing.T) {
	baseline, err := NewNode(0, &collector{}, Config{Seed: 31, SocketBufferBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Close()
	sized, err := NewNode(1, &collector{}, Config{Seed: 32, SocketBufferBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer sized.Close()

	for _, opt := range []int{syscall.SO_RCVBUF, syscall.SO_SNDBUF} {
		base, got := sockBuf(t, baseline, opt), sockBuf(t, sized, opt)
		// The kernel reports 2x the request; even clamped by rmem_max the
		// result must be at least the unclamped kernel default and reflect
		// the request when the ceiling allows.
		want := 2 * (512 << 10)
		if got < base && got < want {
			t.Errorf("sockopt %d = %d after requesting 512 KiB, below kernel default %d", opt, got, base)
		}
	}

	// The default (SocketBufferBytes == 0 → 1 MiB) must also take effect.
	def, err := NewNode(2, &collector{}, Config{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if got, base := sockBuf(t, def, syscall.SO_RCVBUF), sockBuf(t, baseline, syscall.SO_RCVBUF); got < base {
		t.Errorf("default SO_RCVBUF = %d, below kernel default %d", got, base)
	}
}
