package transport

import (
	"net"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// TestDialControlPicksReno dials a loopback listener the way conn does and
// reads the socket's congestion control back.
func TestDialControlPicksReno(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d := net.Dialer{Control: dialControl}
	c, err := d.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rc, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var name [16]byte // TCP_CA_NAME_MAX
	n := uint32(len(name))
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_CONGESTION,
			uintptr(unsafe.Pointer(&name[0])), uintptr(unsafe.Pointer(&n)), 0)
	}); err != nil {
		t.Fatal(err)
	}
	if errno != 0 {
		t.Fatalf("getsockopt TCP_CONGESTION: %v", errno)
	}
	if got := strings.TrimRight(string(name[:n]), "\x00"); got != "reno" {
		t.Fatalf("congestion control = %q, want reno", got)
	}
}
