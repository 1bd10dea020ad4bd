// Package oodb implements a small memory-mapped object-oriented database
// over recoverable virtual memory — the application the paper's
// introduction leads with: "Object-oriented database management systems
// can also use logged virtual memory to log updates to the objects mapped
// into a virtual memory region... persistent objects supporting atomic
// transactions can be read and written in virtual memory with the same
// efficiency as standard C++ objects."
//
// The store keeps fixed-size objects and a hash index in one recoverable
// region; every structural update (slot bitmaps, index buckets, object
// fields) is a recoverable write, so transactions touch many words — the
// regime where Section 4.2 predicts LVM's advantage grows: "Longer
// transactions would also show greater benefit from LVM, assuming
// correspondingly more write operations as well. ... Transactions in
// object-oriented database systems tend to be longer and involve far more
// processing."
//
// The store runs unchanged over the RVM baseline (per-write set_range)
// and over RLVM (plain stores); the transaction-length experiment in
// package experiments sweeps both.
package oodb

import (
	"fmt"

	"lvm/internal/core"
	"lvm/internal/ramdisk"
	"lvm/internal/rlvm"
	"lvm/internal/rvm"
)

// Engine abstracts the two recoverable-memory managers.
type Engine interface {
	Begin() error
	Commit() error
	Abort() error
	RecoverableWrite32(va core.Addr, v uint32) error
	Base() core.Addr
}

// rvmEngine / rlvmEngine adapt the managers.
type rvmEngine struct{ *rvm.Manager }

func (e rvmEngine) RecoverableWrite32(va core.Addr, v uint32) error {
	return e.Manager.RecoverableWrite32(va, v)
}

type rlvmEngine struct{ *rlvm.Manager }

func (e rlvmEngine) RecoverableWrite32(va core.Addr, v uint32) error {
	return e.Manager.RecoverableWrite32(va, v)
}

// Config sizes the store.
type Config struct {
	// MaxObjects is the slot count.
	MaxObjects uint32
	// FieldsPerObject is the object size in 32-bit fields (field 0 is
	// the key).
	FieldsPerObject uint32
	// Buckets is the hash-index bucket count (each bucket holds one
	// chain head; chains link through a per-object next word).
	Buckets uint32
}

// DefaultConfig is a small store.
func DefaultConfig() Config {
	return Config{MaxObjects: 512, FieldsPerObject: 8, Buckets: 128}
}

// Layout (all offsets relative to the engine base):
//
//	header:    [0]=magic [4]=objCount
//	bitmap:    MaxObjects words (1 = allocated)  — one word per slot keeps
//	           writes word-granular, as recoverable writes must be
//	dirIndex:  Buckets words: head object id + 1 (0 = empty)
//	objects:   MaxObjects × (2+FieldsPerObject) words:
//	           [0]=key [1]=next-in-bucket+1 [2..]=fields
const (
	hdrWords  = 2
	oodbMagic = 0x4F4F4442 // "OODB"
)

// Store is an open object store bound to one process.
type Store struct {
	cfg Config
	eng Engine
	p   *core.Process

	inTxn bool

	// Stats.
	Creates, Updates, Deletes, Lookups uint64
}

// RegionBytes reports the recoverable-region size a config needs.
func RegionBytes(cfg Config) uint32 {
	words := uint32(hdrWords) + cfg.MaxObjects + cfg.Buckets +
		cfg.MaxObjects*(2+cfg.FieldsPerObject)
	return (words*4 + core.PageSize - 1) &^ uint32(core.PageSize-1)
}

// OpenRVM opens (or recovers) a store over the RVM baseline.
func OpenRVM(sys *core.System, p *core.Process, cfg Config, disk *ramdisk.Disk) (*Store, error) {
	m, err := rvm.New(sys, p, RegionBytes(cfg), disk, rvm.Options{})
	if err != nil {
		return nil, err
	}
	return open(cfg, rvmEngine{m}, p)
}

// OpenRLVM opens (or recovers) a store over RLVM.
func OpenRLVM(sys *core.System, p *core.Process, cfg Config, disk *ramdisk.Disk) (*Store, error) {
	m, err := rlvm.New(sys, p, RegionBytes(cfg), disk, rlvm.Options{LogPages: 256})
	if err != nil {
		return nil, err
	}
	return open(cfg, rlvmEngine{m}, p)
}

func open(cfg Config, eng Engine, p *core.Process) (*Store, error) {
	s := &Store{cfg: cfg, eng: eng, p: p}
	if p.Load32(eng.Base()) != oodbMagic {
		// Fresh store: format it in one transaction.
		if err := eng.Begin(); err != nil {
			return nil, err
		}
		if err := eng.RecoverableWrite32(eng.Base(), oodbMagic); err != nil {
			return nil, err
		}
		if err := eng.Commit(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Offsets.
func (s *Store) bitmapVA(id uint32) core.Addr {
	return s.eng.Base() + (hdrWords+id)*4
}

func (s *Store) bucketVA(b uint32) core.Addr {
	return s.eng.Base() + (hdrWords+s.cfg.MaxObjects+b)*4
}

func (s *Store) objVA(id uint32) core.Addr {
	return s.eng.Base() + (hdrWords+s.cfg.MaxObjects+s.cfg.Buckets+id*(2+s.cfg.FieldsPerObject))*4
}

func (s *Store) hash(key uint32) uint32 {
	h := key * 2654435761
	return (h >> 7) % s.cfg.Buckets
}

// Begin starts a transaction.
func (s *Store) Begin() error {
	if s.inTxn {
		return fmt.Errorf("oodb: nested transaction")
	}
	if err := s.eng.Begin(); err != nil {
		return err
	}
	s.inTxn = true
	return nil
}

// Commit commits the transaction.
func (s *Store) Commit() error {
	if !s.inTxn {
		return fmt.Errorf("oodb: commit outside transaction")
	}
	s.inTxn = false
	return s.eng.Commit()
}

// Abort rolls the transaction back.
func (s *Store) Abort() error {
	if !s.inTxn {
		return fmt.Errorf("oodb: abort outside transaction")
	}
	s.inTxn = false
	return s.eng.Abort()
}

// Create allocates an object with the given key and field values,
// inserting it into the index. It returns the object id.
func (s *Store) Create(key uint32, fields []uint32) (uint32, error) {
	if !s.inTxn {
		return 0, fmt.Errorf("oodb: Create outside transaction")
	}
	if uint32(len(fields)) > s.cfg.FieldsPerObject {
		return 0, fmt.Errorf("oodb: %d fields > configured %d", len(fields), s.cfg.FieldsPerObject)
	}
	// Find a free slot (the scan reads are ordinary loads).
	id := uint32(0)
	found := false
	for ; id < s.cfg.MaxObjects; id++ {
		s.p.Compute(4)
		if s.p.Load32(s.bitmapVA(id)) == 0 {
			found = true
			break
		}
	}
	if !found {
		return 0, fmt.Errorf("oodb: store full")
	}
	if err := s.eng.RecoverableWrite32(s.bitmapVA(id), 1); err != nil {
		return 0, err
	}
	// Object header: key and bucket chain insert at head.
	b := s.hash(key)
	oldHead := s.p.Load32(s.bucketVA(b))
	if err := s.eng.RecoverableWrite32(s.objVA(id), key); err != nil {
		return 0, err
	}
	if err := s.eng.RecoverableWrite32(s.objVA(id)+4, oldHead); err != nil {
		return 0, err
	}
	if err := s.eng.RecoverableWrite32(s.bucketVA(b), id+1); err != nil {
		return 0, err
	}
	for i, v := range fields {
		if err := s.eng.RecoverableWrite32(s.objVA(id)+8+uint32(i)*4, v); err != nil {
			return 0, err
		}
	}
	s.Creates++
	return id, nil
}

// Lookup finds an object id by key through the hash index.
func (s *Store) Lookup(key uint32) (uint32, bool) {
	s.Lookups++
	b := s.hash(key)
	cur := s.p.Load32(s.bucketVA(b))
	for cur != 0 {
		s.p.Compute(6) // chain traversal
		id := cur - 1
		if s.p.Load32(s.objVA(id)) == key {
			return id, true
		}
		cur = s.p.Load32(s.objVA(id) + 4)
	}
	return 0, false
}

// Field reads field f of object id.
func (s *Store) Field(id, f uint32) uint32 {
	return s.p.Load32(s.objVA(id) + 8 + f*4)
}

// Update writes field f of object id.
func (s *Store) Update(id, f uint32, v uint32) error {
	if !s.inTxn {
		return fmt.Errorf("oodb: Update outside transaction")
	}
	if f >= s.cfg.FieldsPerObject {
		return fmt.Errorf("oodb: field %d out of range", f)
	}
	s.Updates++
	return s.eng.RecoverableWrite32(s.objVA(id)+8+f*4, v)
}
