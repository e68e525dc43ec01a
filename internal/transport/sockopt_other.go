//go:build !linux

package transport

import "syscall"

// dialControl is the Linux-only congestion-control choice (sockopt_linux.go);
// elsewhere outbound sockets keep the system's settings.
func dialControl(_, _ string, _ syscall.RawConn) error { return nil }
