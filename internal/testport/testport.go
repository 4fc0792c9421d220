// Package testport hands out loopback TCP ports to tests that need fixed,
// known-in-advance addresses (a transport.TCP mesh lists every node's address
// before any node listens, so ":0" cannot be used).
//
// The ports lie below 32768, outside Linux's ip_local_port_range, so no
// outgoing connection of a package tested in parallel can be sitting on one.
// Test processes do compete with each other: each starts at a block derived
// from its pid, takes blocks in sequence, and skips a block in which any port
// fails a listen probe.
package testport

import (
	"fmt"
	"net"
	"os"
	"sync"
)

const (
	first     = 20000
	last      = 32000
	blockSize = 16
	blocks    = (last - first) / blockSize
)

var (
	mu   sync.Mutex
	next = os.Getpid() * 7919 % blocks
)

// Addrs returns n (at most 16) loopback addresses on consecutive ports that
// were free just now and that this process will not hand out again.
func Addrs(n int) []string {
	if n > blockSize {
		panic(fmt.Sprintf("testport: %d ports asked, a block has %d", n, blockSize))
	}
	mu.Lock()
	defer mu.Unlock()
	for tries := 0; tries < blocks; tries++ {
		base := first + next*blockSize
		next = (next + 1) % blocks
		if addrs, ok := probe(base, n); ok {
			return addrs
		}
	}
	panic("testport: no free port block between 20000 and 32000")
}

func probe(base, n int) ([]string, bool) {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", base+i)
		ln, err := net.Listen("tcp", addrs[i])
		if err != nil {
			return nil, false
		}
		ln.Close()
	}
	return addrs, true
}
