//go:build unix

package main

import (
	"fmt"
	"syscall"
	"testing"
)

// refusedURL returns an HTTP URL on a loopback port that refuses every
// connection for the rest of the test: the port is bound by a socket that
// never listens, so no other listener can take it and a connect is
// answered with a reset.
func refusedURL(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("http://127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
}
