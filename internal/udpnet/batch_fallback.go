//go:build !linux

// Portable half of the batched-syscall split: platforms without
// sendmmsg/recvmmsg have no batched path, so the node keeps singleIO (one
// datagram per syscall, batch size 1). The Linux fast path lives behind the
// inverse build tag in batch_linux.go.

package udpnet

import (
	"errors"
	"net"
)

// newBatchIO reports that this platform has no batched-syscall path.
func newBatchIO(*net.UDPConn) (batchIO, error) {
	return nil, errors.New("udpnet: no batched syscalls on this platform")
}
