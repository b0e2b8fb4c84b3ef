//go:build !linux

// Portable half of the build-tag split: platforms without
// sendmmsg/recvmmsg have no batched path, so the node keeps singleIO (one
// datagram per syscall, batch size 1), and without epoll the event loop
// waits through a reader goroutine per socket (portWaiter). The Linux fast
// path lives behind the inverse build tag in batch_linux.go and
// wait_linux.go.

package udpnet

import (
	"errors"
	"net"
)

// newBatchIO reports that this platform has no batched-syscall path.
func newBatchIO(*net.UDPConn) (batchIO, error) {
	return nil, errors.New("udpnet: no batched syscalls on this platform")
}

func newWaiter() (waiter, error) { return newPortWaiter(), nil }
