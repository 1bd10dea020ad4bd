// Package logrec defines the 16-byte log record produced by the hardware
// logger and utilities to encode, decode and scan sequences of records.
//
// Section 3.1 of the paper: "It places the log address and a 16-byte log
// record in the log record FIFO. The log record contains the original data
// address, value written, size of the write, and a high-resolution
// timestamp (6.25 MHz)."
//
// On-disk/in-memory layout (little endian):
//
//	offset  size  field
//	0       4     address (physical in the prototype, virtual with the
//	              on-chip logger of Section 4.6)
//	4       4     value written (low bytes significant for size < 4)
//	8       2     size of the write in bytes (1, 2, 4 or 8; an 8-byte
//	              write is emitted as two 4-byte records by the 32-bit
//	              prototype, so 8 never appears on the bus there)
//	10      2     CPU number that issued the write
//	12      4     timestamp (6.25 MHz ticks)
package logrec

import (
	"encoding/binary"
	"fmt"
)

// Size is the size of one encoded log record in bytes.
const Size = 16

// Record is one logged write.
type Record struct {
	Addr      uint32 // address written
	Value     uint32 // datum written
	WriteSize uint16 // size of the write in bytes
	CPU       uint16 // processor that issued the write
	Timestamp uint32 // 6.25 MHz logger clock
}

// Encode writes the record into dst, which must be at least Size bytes.
func (r Record) Encode(dst []byte) {
	Put((*[Size]byte)(dst), r.Addr, r.Value, r.WriteSize, r.CPU, r.Timestamp)
}

// Put writes one record into dst straight from its fields, as two
// little-endian 64-bit words: the one place the layout above is written.
// A logger encodes from the write it holds, never through a Record temp.
func Put(dst *[Size]byte, addr, value uint32, size, cpu uint16, ts uint32) {
	le := binary.LittleEndian
	le.PutUint64(dst[0:], uint64(addr)|uint64(value)<<32)
	le.PutUint64(dst[8:], uint64(size)|uint64(cpu)<<16|uint64(ts)<<32)
}

// Decode parses a record from src, which must be at least Size bytes.
func Decode(src []byte) Record {
	_ = src[Size-1]
	le := binary.LittleEndian
	return Record{
		Addr:      le.Uint32(src[0:]),
		Value:     le.Uint32(src[4:]),
		WriteSize: le.Uint16(src[8:]),
		CPU:       le.Uint16(src[10:]),
		Timestamp: le.Uint32(src[12:]),
	}
}

// String renders the record in the style of the worked example in
// Section 3.1.1 of the paper.
func (r Record) String() string {
	return fmt.Sprintf("%08x %08x %04x cpu%d @%d", r.Addr, r.Value, r.WriteSize, r.CPU, r.Timestamp)
}
