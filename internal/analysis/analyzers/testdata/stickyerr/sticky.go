// Package stickytest exercises the wire sticky-error contract check.
package stickytest

import "messengers/internal/wire"

// bad consumes bytes without ever consulting the sticky error.
func bad(s string) []byte {
	e := wire.NewEncoder()
	e.Str(s)
	return e.Bytes() // want "never checks"
}

func badBytes(s string) int {
	e := wire.NewEncoder()
	defer e.Release()
	e.Str(s)
	return len(e.Bytes()) // want "never checks"
}

// good checks Err before trusting the bytes.
func good(s string) ([]byte, error) {
	e := wire.NewEncoder()
	e.Str(s)
	if err := e.Err(); err != nil {
		e.Release()
		return nil, err
	}
	return e.Bytes(), nil
}

// goodFrame: EndFrame returns the sticky error, which counts as the check.
func goodFrame(s string) ([]byte, error) {
	e := wire.NewEncoder()
	off := e.BeginFrame()
	e.Str(s)
	if err := e.EndFrame(off); err != nil {
		e.Release()
		return nil, err
	}
	return e.Bytes(), nil
}

func encodeInto(e *wire.Encoder, s string) error {
	e.Str(s)
	return e.Err()
}

// goodTransfer hands the encoder to an error-returning helper; the sticky
// error escapes through that call.
func goodTransfer(s string) []byte {
	e := wire.NewEncoder()
	if err := encodeInto(e, s); err != nil {
		return nil
	}
	return e.Bytes()
}

// suppressed documents why the check is unnecessary.
func suppressed() []byte {
	e := wire.NewEncoder()
	e.U32(7)         // fixed-width writes cannot set the sticky error
	return e.Bytes() //lint:stickyerr U32-only encoding cannot fail
}

// badDecode takes what the decoder returns without asking whether the
// buffer held it.
func badDecode(buf []byte) uint32 {
	d := wire.NewDecoder(buf) // want "never checks"
	return d.U32()
}

// goodDecode consults the sticky error; Finish counts, since it returns it.
func goodDecode(buf []byte) (uint32, error) {
	d := wire.NewDecoder(buf)
	v := d.U32()
	return v, d.Finish()
}
