package pvm

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"messengers/internal/lan"
	"messengers/internal/sim"
	"messengers/internal/value"
	"messengers/internal/wire"
)

// Buffer is a PVM message buffer. Packing copies data in at the sender;
// unpacking copies it out at the receiver — the two explicit copies the
// paper contrasts with MESSENGERS' direct state transfer (§2.1). In
// simulation each copy is charged at the corresponding per-byte rate
// (chargeCopy): the modeled cost is independent of whether this
// implementation physically pays it, so pooling the backing storage below
// does not change any figure. For the same reason a matrix whose values
// nobody reads may be packed by its shape (PkMatShape): its header is held,
// its payload only counted, and the message's length is both.
type Buffer struct {
	data []byte
	// shapes holds the offset in data of each matrix packed by shape, in
	// pack order; counted is the sum of their payloads, charged and routed
	// but never held. next indexes the shape the reader reaches next.
	shapes  []int
	counted int
	next    int
	pos     int
	src     TID
	tag     int
	// refs counts live references to pooled backing storage — Mcast shares
	// one data slice across every destination's Buffer — and is nil for
	// unpooled buffers. The last release recycles data into the wire pool,
	// in the box it was drawn in.
	refs *atomic.Int32
	box  *[]byte
}

// release drops this buffer's claim on pooled storage, recycling it once no
// other reference remains. Unpacking from the buffer afterwards panics
// (message end), mirroring PVM's freed-receive-buffer behavior.
func (b *Buffer) release() {
	if b == nil || b.refs == nil {
		return
	}
	if b.refs.Add(-1) == 0 {
		*b.box = b.data
		wire.PutBuf(b.box)
	}
	b.refs, b.box = nil, nil
	b.data = nil
}

// length is the message's length on the wire: the held bytes plus the counted
// ones. The transport counts, fragments and routes this many bytes.
func (b *Buffer) length() int { return len(b.data) + b.counted }

// message is the buffer as sent from src with tag: it shares the packed
// storage and its pool reference.
func (b *Buffer) message(src TID, tag int) *Buffer {
	return &Buffer{data: b.data, shapes: b.shapes, counted: b.counted, src: src, tag: tag, refs: b.refs, box: b.box}
}

// newSendBuf draws a pack buffer from the wire pool, holding one reference.
func newSendBuf() *Buffer {
	box := wire.GetBuf()
	b := &Buffer{data: *box, refs: new(atomic.Int32), box: box}
	b.refs.Store(1)
	return b
}

// Sender returns the sending task (after Recv).
func (b *Buffer) Sender() TID { return b.src }

// InitSend clears the task's send buffer (pvm_initsend), recycling any
// packed-but-unsent storage.
func (p *Proc) InitSend() {
	p.checkKilled()
	p.sendBuf.release()
	p.sendBuf = newSendBuf()
}

func (p *Proc) send() *Buffer {
	if p.sendBuf == nil {
		p.sendBuf = newSendBuf()
	}
	return p.sendBuf
}

// chargeCopy charges a user-level copy of n bytes and accounts it to the
// pack or unpack byte counter when metrics are attached.
func (p *Proc) chargeCopy(n int, perByte func(cm *lan.CostModel) sim.Time, unpack bool) {
	if mo := p.m.mo; mo != nil && n > 0 {
		if unpack {
			mo.unpackBytes.Add(int64(n))
		} else {
			mo.packBytes.Add(int64(n))
		}
	}
	if p.m.Sim() && n > 0 {
		p.Compute(sim.Time(n) * perByte(p.m.cm))
	}
}

// PkInt packs int64s (pvm_pkint).
func (p *Proc) PkInt(vs ...int64) {
	p.checkKilled()
	b := p.send()
	for _, v := range vs {
		b.data = binary.LittleEndian.AppendUint64(b.data, uint64(v))
	}
	p.chargeCopy(8*len(vs), func(cm *lan.CostModel) sim.Time { return cm.PVMPackPerByte }, false)
}

// PkBytes packs a byte block (pvm_pkbyte).
func (p *Proc) PkBytes(bs []byte) {
	p.checkKilled()
	b := p.send()
	b.data = binary.LittleEndian.AppendUint32(b.data, uint32(len(bs)))
	b.data = append(b.data, bs...)
	p.chargeCopy(len(bs), func(cm *lan.CostModel) sim.Time { return cm.PVMPackPerByte }, false)
}

// PkMat packs a matrix as dims plus row-major float64 data.
func (p *Proc) PkMat(m *value.Mat) {
	p.checkKilled()
	b := p.send()
	b.appendDims(m.Rows, m.Cols)
	b.data = wire.AppendF64s(b.data, m.Data)
	p.chargeCopy(8*len(m.Data), func(cm *lan.CostModel) sim.Time { return cm.PVMPackPerByte }, false)
}

// PkMatShape packs a rows x cols matrix by its shape: the dims PkMat writes,
// and a payload of 8*rows*cols bytes that is charged, counted and routed as
// PkMat's is but never held. It serves runs whose values nobody reads; the
// receiver unpacks it with UpkMatShape.
func (p *Proc) PkMatShape(rows, cols int) {
	p.checkKilled()
	b := p.send()
	b.shapes = append(b.shapes, len(b.data))
	b.appendDims(rows, cols)
	b.counted += 8 * rows * cols
	p.chargeCopy(8*rows*cols, func(cm *lan.CostModel) sim.Time { return cm.PVMPackPerByte }, false)
}

func (b *Buffer) appendDims(rows, cols int) {
	b.data = binary.LittleEndian.AppendUint32(b.data, uint32(rows))
	b.data = binary.LittleEndian.AppendUint32(b.data, uint32(cols))
}

// unpack helpers; PVM's upk calls abort the task on type/size mismatch,
// which we model with panics recorded by the machine.

func (p *Proc) upkN(b *Buffer, n int) []byte {
	if b.pos+n > len(b.data) {
		panic(fmt.Sprintf("pvm: unpack of %d bytes beyond message end (%d/%d)", n, b.pos, len(b.data)))
	}
	if b.next < len(b.shapes) && b.shapes[b.next] < b.pos+n {
		panic(fmt.Sprintf("pvm: unpack of %d bytes across a matrix packed by shape at %d", n, b.shapes[b.next]))
	}
	out := b.data[b.pos : b.pos+n]
	b.pos += n
	return out
}

// UpkInt unpacks one int64.
func (p *Proc) UpkInt(b *Buffer) int64 {
	v := int64(binary.LittleEndian.Uint64(p.upkN(b, 8)))
	p.chargeCopy(8, func(cm *lan.CostModel) sim.Time { return cm.PVMUnpackPerByte }, true)
	return v
}

// UpkBytes unpacks a byte block (copying it out of the buffer).
func (p *Proc) UpkBytes(b *Buffer) []byte {
	n := int(binary.LittleEndian.Uint32(p.upkN(b, 4)))
	src := p.upkN(b, n)
	out := make([]byte, n)
	copy(out, src)
	p.chargeCopy(n, func(cm *lan.CostModel) sim.Time { return cm.PVMUnpackPerByte }, true)
	return out
}

// UpkMat unpacks a matrix into dst, a block the caller owns, as
// pvm_upkdouble(dp, n, 1) fills the caller's array. A packed matrix whose
// shape differs from dst's, or one packed by shape, aborts the task and
// leaves dst untouched.
func (p *Proc) UpkMat(b *Buffer, dst *value.Mat) {
	p.upkDims(b, dst.Rows, dst.Cols)
	wire.ReadF64s(dst.Data, p.upkN(b, 8*len(dst.Data)))
	p.chargeCopy(8*len(dst.Data), func(cm *lan.CostModel) sim.Time { return cm.PVMUnpackPerByte }, true)
}

// UpkMatShape unpacks a rows x cols matrix packed by PkMatShape, charging
// and counting what UpkMat would; nothing is copied. The next field must be
// such a matrix of that shape, or the task aborts.
func (p *Proc) UpkMatShape(b *Buffer, rows, cols int) {
	if b.next == len(b.shapes) || b.shapes[b.next] != b.pos {
		panic(fmt.Sprintf("pvm: unpack by shape at %d, where no matrix was packed by shape", b.pos))
	}
	b.next++
	p.upkDims(b, rows, cols)
	p.chargeCopy(8*rows*cols, func(cm *lan.CostModel) sim.Time { return cm.PVMUnpackPerByte }, true)
}

// upkDims reads a packed matrix's dims, aborting the task unless they are
// rows x cols.
func (p *Proc) upkDims(b *Buffer, rows, cols int) {
	r := int(binary.LittleEndian.Uint32(p.upkN(b, 4)))
	c := int(binary.LittleEndian.Uint32(p.upkN(b, 4)))
	if r != rows || c != cols {
		panic(fmt.Sprintf("pvm: unpack matrix %dx%d into %dx%d", r, c, rows, cols))
	}
}
