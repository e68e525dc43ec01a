package transport

import "syscall"

// dialControl runs on every outbound socket before it connects and asks for
// window-based congestion control. A hop is one burst — a whole frame
// written at once, then silence until the Messenger comes back — and a
// rate-based default (BBR) paces the segments of every multi-segment frame
// out on high-resolution timers. On loopback and on a LAN there is nothing
// to pace for, and the timers are not free: on a virtualized host each one
// is a VM exit, BBR's bandwidth estimate settles on what the timers let
// through, and a 512 KB hop then takes 190 or 250 us for the life of the
// connection depending on which estimate it drew. Reno is in every kernel
// and is always permitted; the call is best effort and a refusal leaves
// the system default in place. Frames flow dialer -> acceptor only, so the
// accepted side needs nothing.
func dialControl(_, _ string, c syscall.RawConn) error {
	return c.Control(func(fd uintptr) {
		_ = syscall.SetsockoptString(int(fd), syscall.IPPROTO_TCP, syscall.TCP_CONGESTION, "reno")
	})
}
